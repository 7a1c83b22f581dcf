// Lifecycle of one `systolize serve` daemon per benchmark run: a private
// socket in a fresh directory under the build tree, readiness by ping, a
// hang guard that kills a daemon which stops answering (so a blocked
// client read ends instead of hanging), and a strict shutdown that
// requires the `shutdown` op to drain the daemon to exit status 0 and
// remove its socket.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "service/client.hpp"
#include "service/protocol.hpp"

namespace perfbench {

/// Any daemon lifecycle failure: death, hang, bad exit, leftover socket.
struct DaemonError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct DaemonConfig {
  std::string cli;        ///< path of the systolize binary
  std::string scratch;    ///< directory the private run directory goes in
};

class Daemon {
 public:
  /// Start the daemon and wait until it answers a ping.
  explicit Daemon(DaemonConfig config);
  /// Kills a daemon that was not shut down and removes its directory.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& socket() const { return socket_; }

  /// One request/response under the hang guard. Throws DaemonError when
  /// the daemon died or was killed for hanging.
  [[nodiscard]] systolize::service::Response call(
      systolize::service::Client& client,
      const systolize::service::Request& req);

  /// Send the shutdown op and require exit status 0 and a removed socket.
  void shutdown();

 private:
  void wait_ready();
  void guard_loop(pid_t pid);
  void stop_guard();
  void kill_and_reap();
  /// Stop the guard, kill a live daemon, remove the run directory.
  void release();

  DaemonConfig config_;
  std::string dir_;
  std::string socket_;
  std::string log_;
  pid_t pid_ = -1;

  std::mutex mu_;  // guards the guard thread's view below
  std::condition_variable cv_;
  bool stop_guard_ = false;
  int in_flight_ = 0;
  std::int64_t last_progress_ns_ = 0;
  std::atomic<bool> hung_{false};
  std::thread guard_;  // declared last: uses the members above
};

}  // namespace perfbench
