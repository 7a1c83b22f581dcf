#include "runtime/instantiate.hpp"

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/verify.hpp"
#include "runtime/bytecode.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/vm.hpp"
#include "support/error.hpp"

namespace systolize {

namespace {

// Names the first option incompatible with the bytecode VM, or returns
// an empty string when the options are eligible. The VM executes pure
// rendezvous networks with flat-buffer I/O; everything it cannot do is
// a per-run attachment the coroutine scheduler handles.
std::string bytecode_blocker(const InstantiateOptions& options) {
  if (options.channel_capacity > 0) {
    return "buffered channels (channel capacity > 0)";
  }
  if (options.merge_internal_buffers) return "merged internal buffers";
  if (options.partition_grid.dim() != 0) return "partitioning";
  if (options.trace != nullptr) {
    return "tracing (trace order is engine-specific)";
  }
  if (options.faults != nullptr && !options.faults->empty()) {
    return "fault injection (verdicts are per instance; run faulted "
           "instances individually through the interpreter)";
  }
  if (options.watchdog.max_blocked_rounds > 0) {
    return "per-process starvation bounds (--watchdog-blocked)";
  }
  return {};
}

// The plan both engines run: built (or fetched from options.plan_cache),
// its graph copied out when asked for, and — with options.verify_plan —
// the static verification gate: the schedule, guards and channel
// structure proved sound before a single process is spawned.
std::shared_ptr<const NetworkPlan> plan_for_run(
    const CompiledProgram& program, const LoopNest& nest, const Env& sizes,
    const InstantiateOptions& options, PlanCache::LookupStats* stats) {
  const PlanShape shape{options.channel_capacity,
                        options.merge_internal_buffers,
                        options.partition_grid};
  std::shared_ptr<const NetworkPlan> plan =
      plan_for(program, nest, sizes, shape, options.plan_cache, stats);
  if (options.network != nullptr) *options.network = plan->graph;
  if (options.verify_plan) {
    VerifyReport rep = verify_program(program, nest);
    verify_plan_into(rep, *plan);
    if (rep.errors() != 0) {
      raise(ErrorKind::Validation,
            "static plan verification failed:\n" + rep.to_string(),
            rep.to_json());
    }
  }
  return plan;
}

// The bytecode path shared by execute(backend=Bytecode) and
// execute_batch: expand (or fetch) the plan, lower (or fetch) the
// program, run all instances as SoA lanes of one VM dispatch, and
// de-interleave the outputs back into the per-instance stores.
// Options must already have passed bytecode_blocker().
RunMetrics run_bytecode(const CompiledProgram& program, const LoopNest& nest,
                        const Env& sizes, IndexedStore* stores,
                        std::size_t batch,
                        const InstantiateOptions& options) {
  PlanCache::LookupStats cache_stats;
  const std::shared_ptr<const NetworkPlan> plan =
      plan_for_run(program, nest, sizes, options, &cache_stats);

  std::shared_ptr<const BytecodeProgram> prog;
  PlanCache::BytecodeStats bc_stats;
  if (options.plan_cache != nullptr) {
    prog = options.plan_cache->lookup_or_lower(plan, &bc_stats);
  } else {
    const auto t0 = std::chrono::steady_clock::now();
    prog = lower_plan(*plan);
    bc_stats.lower_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  // Gather every instance's input pipes into one instance-major buffer:
  // element e of lane l at in[e * batch + l] (the VM's lane layout, so a
  // rendezvous moves all lanes with one dense copy).
  const std::size_t elem_count = plan->elems.size();
  std::vector<Value> in(elem_count * batch, 0);
  std::vector<Value> out(elem_count * batch, 0);
  std::vector<Value> row;
  for (const NetworkPlan::ProcSpec& spec : plan->procs) {
    if (spec.kind != NetworkPlan::ProcKind::Input) continue;
    const std::size_t n = spec.elem_end - spec.elem_begin;
    row.resize(n);
    for (std::size_t lane = 0; lane < batch; ++lane) {
      stores[lane].gather(plan->streams[spec.stream],
                          plan->elems.data() + spec.elem_begin, n,
                          row.data());
      for (std::size_t k = 0; k < n; ++k) {
        in[(spec.elem_begin + k) * batch + lane] = row[k];
      }
    }
  }

  VmRunOptions vopt;
  vopt.max_rounds = options.watchdog.max_rounds;
  vopt.cancel = options.watchdog.cancel;
  vopt.cancel_reason = options.watchdog.cancel_reason;
  vopt.cancel_kind = options.watchdog.cancel_kind;
  VmResult result =
      run_vm_batched(*prog, *plan, in.data(), out.data(), batch,
                     options.threads, options.worker_pool, vopt);

  for (const NetworkPlan::ProcSpec& spec : plan->procs) {
    if (spec.kind != NetworkPlan::ProcKind::Output) continue;
    const std::size_t n = spec.elem_end - spec.elem_begin;
    row.resize(n);
    for (std::size_t lane = 0; lane < batch; ++lane) {
      for (std::size_t k = 0; k < n; ++k) {
        row[k] = out[(spec.elem_begin + k) * batch + lane];
      }
      stores[lane].scatter(plan->streams[spec.stream],
                           plan->elems.data() + spec.elem_begin, n,
                           row.data());
    }
  }

  RunMetrics metrics;
  metrics.plan_reused = cache_stats.plan_hit;
  metrics.template_reused = cache_stats.template_hit;
  metrics.plan_expand_ns = static_cast<Int>(cache_stats.expand_ns);
  if (options.plan_cache != nullptr) {
    metrics.plan_cache_bytes = options.plan_cache->bytes();
    metrics.plan_cache_evictions = options.plan_cache->evictions();
  }
  metrics.process_count = plan->procs.size();
  metrics.channel_count = plan->channels.size();
  metrics.computation_processes = plan->comp_count;
  metrics.io_processes = plan->io_count;
  metrics.buffer_processes = plan->buffer_count;
  metrics.physical_processors = plan->procs.size();  // no partitioning
  metrics.backend = "bytecode";
  metrics.batch = batch;
  metrics.bytecode_reused = bc_stats.hit;
  metrics.bytecode_lower_ns = static_cast<Int>(bc_stats.lower_ns);
  metrics.bytecode_instructions = prog->instruction_count();
  metrics.makespan = result.makespan;
  metrics.total_transfers = result.total_transfers;
  metrics.statements = result.statements;
  metrics.scheduler_rounds = result.rounds;
  for (const std::string& stream : plan->streams) {
    metrics.transfers_per_stream[stream] = 0;
  }
  for (std::size_t c = 0; c < plan->channels.size(); ++c) {
    metrics.transfers_per_stream[plan->streams[plan->channels[c].stream]] +=
        result.channel_transfers[c];
  }
  return metrics;
}

}  // namespace

// Instantiation is plan-driven: the symbolic program is lowered into an
// interned NetworkPlan (runtime/plan_cache — dense process and channel
// ids, flat element slices) by compiling a PlanTemplate and expanding it
// at `sizes`, and execute() only stands the network up and runs it. With
// a PlanCache attached, the template is compiled once per (program,
// shape) and each new size costs only an integer expansion; repeated
// executions at a known size skip even that.
RunMetrics execute(const CompiledProgram& program, const LoopNest& nest,
                   const Env& sizes, IndexedStore& store,
                   const InstantiateOptions& options) {
  if (options.backend == Backend::Bytecode) {
    const std::string blocker = bytecode_blocker(options);
    if (!blocker.empty()) {
      raise(ErrorKind::Validation,
            "the bytecode backend cannot run with " + blocker +
                "; use --backend=interp");
    }
    return run_bytecode(program, nest, sizes, &store, 1, options);
  }
  PlanCache::LookupStats cache_stats;
  // A shared_ptr held for the whole run: LRU eviction by a concurrent
  // lookup must not free the plan under us.
  const std::shared_ptr<const NetworkPlan> plan =
      plan_for_run(program, nest, sizes, options, &cache_stats);

  const bool faulted =
      options.faults != nullptr && !options.faults->empty();
  const bool instrumented = faulted || options.watchdog.max_rounds > 0 ||
                            options.watchdog.max_blocked_rounds > 0 ||
                            options.watchdog.cancel != nullptr;

  // Gather every input pipe's values into one flat buffer up front. The
  // legacy path read the store pipe-by-pipe while building the network;
  // outputs are only written during/after the run, so a bulk pre-run
  // gather reads exactly the same values.
  std::vector<Value> in_values(plan->elems.size(), 0);
  for (const NetworkPlan::ProcSpec& spec : plan->procs) {
    if (spec.kind != NetworkPlan::ProcKind::Input) continue;
    store.gather(plan->streams[spec.stream],
                 plan->elems.data() + spec.elem_begin,
                 spec.elem_end - spec.elem_begin,
                 in_values.data() + spec.elem_begin);
  }

  RunMetrics metrics;
  metrics.plan_reused = cache_stats.plan_hit;
  metrics.template_reused = cache_stats.template_hit;
  metrics.plan_expand_ns = static_cast<Int>(cache_stats.expand_ns);
  if (options.plan_cache != nullptr) {
    metrics.plan_cache_bytes = options.plan_cache->bytes();
    metrics.plan_cache_evictions = options.plan_cache->evictions();
  }
  metrics.process_count = plan->procs.size();
  metrics.channel_count = plan->channels.size();
  metrics.computation_processes = plan->comp_count;
  metrics.io_processes = plan->io_count;
  metrics.buffer_processes = plan->buffer_count;
  metrics.physical_processors = options.partition_grid.dim() == 0
                                    ? plan->procs.size()
                                    : plan->clock_count;

  // The fast path extracts into a flat buffer committed after a
  // successful run; the instrumented path keeps the legacy write-through
  // output processes so a faulted run's partial results stay observable.
  std::vector<Value> out_values;

  Scheduler sched;
  std::optional<FaultInjector> injector;
  if (faulted) {
    injector.emplace(*options.faults);
    sched.set_fault_injector(&*injector);
  }
  sched.set_watchdog(options.watchdog);

  // Physical-processor clocks for partitioned runs; processes hold raw
  // pointers into this vector until the scheduler is destroyed.
  std::vector<Clock> clocks(plan->clock_count);
  std::vector<Channel*> chans;
  chans.reserve(plan->channels.size());
  for (const NetworkPlan::ChannelSpec& spec : plan->channels) {
    chans.push_back(&sched.make_channel(spec.name, spec.capacity));
  }
  if (!instrumented) out_values.assign(plan->elems.size(), 0);
  PlanBindings bindings;
  bindings.plan = plan.get();
  bindings.in_values = in_values.data();
  bindings.out_values = instrumented ? nullptr : out_values.data();
  bindings.store = &store;
  bindings.trace = options.trace;
  std::vector<Process*> procs;
  procs.reserve(plan->procs.size());
  for (std::uint32_t pi = 0; pi < plan->procs.size(); ++pi) {
    procs.push_back(
        &spawn_plan_proc(sched, pi, chans.data(), clocks.data(), bindings));
  }
  // Declare both endpoints of every channel so deadlock forensics can
  // follow wait-for edges through processes that never touched them.
  for (std::size_t c = 0; c < plan->channels.size(); ++c) {
    const NetworkPlan::ChannelSpec& spec = plan->channels[c];
    if (spec.sender >= 0) chans[c]->declare_sender(*procs[spec.sender]);
    if (spec.receiver >= 0) {
      chans[c]->declare_receiver(*procs[spec.receiver]);
    }
  }

  sched.run();

  metrics.scheduler_rounds = sched.round();
  metrics.faults_injected = injector ? injector->injected() : 0;
  metrics.makespan = sched.makespan();
  metrics.total_transfers = sched.total_transfers();
  for (const Process& p : sched.processes()) {
    metrics.statements += p.statements;
  }

  // Commit extracted values (fast path only; the instrumented
  // path already wrote through).
  if (!out_values.empty()) {
    for (const NetworkPlan::ProcSpec& spec : plan->procs) {
      if (spec.kind != NetworkPlan::ProcKind::Output) continue;
      store.scatter(plan->streams[spec.stream],
                    plan->elems.data() + spec.elem_begin,
                    spec.elem_end - spec.elem_begin,
                    out_values.data() + spec.elem_begin);
    }
  }

  // Per-stream transfer totals straight off the plan's channel->stream
  // ids (the legacy path re-parsed "<stream>[pipe].link" display names).
  for (const std::string& stream : plan->streams) {
    metrics.transfers_per_stream[stream] = 0;
  }
  for (std::size_t c = 0; c < plan->channels.size(); ++c) {
    metrics.transfers_per_stream[plan->streams[plan->channels[c].stream]] +=
        chans[c]->transfers();
  }
  return metrics;
}

RunMetrics execute_batch(const CompiledProgram& program, const LoopNest& nest,
                         const Env& sizes, IndexedStore* stores,
                         std::size_t batch,
                         const InstantiateOptions& options) {
  if (batch == 0) {
    raise(ErrorKind::Validation, "execute_batch requires batch >= 1");
  }
  if (options.faults != nullptr && !options.faults->empty()) {
    raise(ErrorKind::Validation,
          "batched execution cannot inject faults: fault verdicts are per "
          "instance; run faulted instances individually through execute()");
  }
  const std::string blocker = bytecode_blocker(options);
  if (options.backend == Backend::Bytecode && !blocker.empty()) {
    raise(ErrorKind::Validation,
          "the bytecode backend cannot run with " + blocker +
              "; use --backend=interp");
  }
  const bool use_vm =
      options.backend == Backend::Bytecode ||
      (options.backend == Backend::Auto && batch > 1 && blocker.empty());
  if (use_vm) return run_bytecode(program, nest, sizes, stores, batch, options);

  // Interpreter fallback: the batch is just `batch` independent runs of
  // the same plan (served from the cache after the first). The schedule
  // metrics are identical per instance, so the first run's describe the
  // batch.
  InstantiateOptions per = options;
  per.backend = Backend::Interp;
  RunMetrics metrics;
  for (std::size_t i = 0; i < batch; ++i) {
    RunMetrics m = execute(program, nest, sizes, stores[i], per);
    if (i == 0) metrics = std::move(m);
  }
  metrics.batch = batch;
  return metrics;
}

}  // namespace systolize
