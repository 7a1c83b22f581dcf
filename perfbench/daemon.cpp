#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <vector>

#include "measure.hpp"
#include "service/json.hpp"
#include "support/error.hpp"

namespace perfbench {

using systolize::service::Client;
using systolize::service::Request;
using systolize::service::Response;

namespace {

constexpr double kStartSeconds = 20;
constexpr double kExitSeconds = 20;
constexpr double kHangSeconds = 30;  // a call with no answer for this long fails
constexpr int kWorkers = 2;          // plus one client: within four cores

bool path_exists(const std::string& p) {
  struct stat st {};
  return ::lstat(p.c_str(), &st) == 0;
}

}  // namespace

Daemon::Daemon(DaemonConfig config) : config_(std::move(config)) {
  ::mkdir(config_.scratch.c_str(), 0700);
  std::string tmpl = config_.scratch + "/serve-XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) {
    throw DaemonError("cannot create a run directory under " +
                      config_.scratch);
  }
  dir_ = tmpl;
  socket_ = dir_ + "/d.sock";
  log_ = dir_ + "/daemon.log";

  // Everything the child needs is built before fork(): after it, only
  // async-signal-safe calls run until exec.
  const std::vector<std::string> args = {
      config_.cli, "serve", "--socket=" + socket_,
      "--workers=" + std::to_string(kWorkers)};
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) throw DaemonError("fork failed");
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the generator
    const int fd = ::open(log_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }

  guard_ = std::thread([this, pid = pid_] { guard_loop(pid); });
  try {
    wait_ready();
  } catch (...) {
    release();
    throw;
  }
}

void Daemon::wait_ready() {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(kStartSeconds * 1e9);
  for (;;) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw DaemonError("daemon exited during start-up (see " + log_ + ")");
    }
    try {
      Client probe(socket_);
      Request ping;
      ping.op = "ping";
      if (probe.call(ping).status == "ok") break;
    } catch (const systolize::Error&) {
      // Not listening yet.
    }
    if (now_ns() > deadline) throw DaemonError("daemon did not answer a ping");
    ::usleep(1000);
  }
}

Daemon::~Daemon() { release(); }

void Daemon::stop_guard() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_guard_ = true;
  }
  cv_.notify_all();
  if (guard_.joinable()) guard_.join();
}

void Daemon::release() {
  stop_guard();
  kill_and_reap();
  ::unlink(socket_.c_str());
  ::unlink(log_.c_str());
  ::rmdir(dir_.c_str());
}

void Daemon::kill_and_reap() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

void Daemon::guard_loop(pid_t pid) {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_guard_) {
    cv_.wait_for(lock, std::chrono::milliseconds(100));
    if (in_flight_ > 0 &&
        now_ns() - last_progress_ns_ >
            static_cast<std::int64_t>(kHangSeconds * 1e9)) {
      // Killing the daemon closes its sockets, so every blocked client
      // read returns EOF and the run fails instead of hanging.
      hung_ = true;
      ::kill(pid, SIGKILL);
      return;
    }
  }
}

Response Daemon::call(Client& client, const Request& req) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (in_flight_++ == 0) last_progress_ns_ = now_ns();
  }
  Response r;
  try {
    r = client.call(req);
  } catch (const systolize::Error& e) {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    throw DaemonError(hung_ ? "daemon hung: no answer for " +
                                  std::to_string(kHangSeconds) + " s"
                            : std::string("daemon connection lost: ") + e.what());
  }
  std::lock_guard<std::mutex> lock(mu_);
  --in_flight_;
  last_progress_ns_ = now_ns();
  return r;
}

void Daemon::shutdown() {
  {
    Client client(socket_);
    Request req;
    req.op = "shutdown";
    const Response r = call(client, req);
    if (r.status != "ok") throw DaemonError("shutdown op returned " + r.status);
  }
  stop_guard();  // the pid is about to be reaped; never signal it after
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(kExitSeconds * 1e9);
  int status = 0;
  for (;;) {
    const pid_t got = ::waitpid(pid_, &status, WNOHANG);
    if (got == pid_) break;
    if (got < 0 && errno != EINTR) throw DaemonError("waitpid failed");
    if (now_ns() > deadline) {
      kill_and_reap();
      throw DaemonError("daemon did not exit after the shutdown op");
    }
    ::usleep(2000);
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw DaemonError("daemon exit status " +
                      std::to_string(WIFEXITED(status) ? WEXITSTATUS(status)
                                                       : 128 + WTERMSIG(status)));
  }
  if (path_exists(socket_)) {
    throw DaemonError("daemon left its socket behind: " + socket_);
  }
}

}  // namespace perfbench
