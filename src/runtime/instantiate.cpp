#include "runtime/instantiate.hpp"

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

PlanShape shape_of(const InstantiateOptions& options) {
  return PlanShape{options.channel_capacity, options.merge_internal_buffers,
                   options.partition_grid};
}

// The one engine rule of execute() and execute_batch(): the VM runs
// everything bytecode_blocker() allows unless the caller forces the
// interpreter; forcing the VM onto a blocked run is a validation error.
bool use_vm(const InstantiateOptions& options) {
  if (options.backend == Backend::Interp) return false;
  const std::string blocker = bytecode_blocker(options);
  if (blocker.empty()) return true;
  if (options.backend == Backend::Bytecode) {
    raise(ErrorKind::Validation, "the bytecode backend cannot run with " +
                                     blocker + "; use --backend=interp");
  }
  return false;
}

// What every run does with its plan before running it: copy its graph
// out when asked for and — with options.verify_plan — pass the static
// verification gate: the schedule, guards and channel structure proved
// sound before anything runs.
void check_plan(const CompiledProgram& program, const LoopNest& nest,
                const NetworkPlan& plan, const InstantiateOptions& options) {
  if (options.network != nullptr) *options.network = plan.graph;
  if (options.verify_plan) {
    VerifyReport rep = verify_program(program, nest);
    verify_plan_into(rep, plan);
    if (rep.errors() != 0) {
      raise(ErrorKind::Validation,
            "static plan verification failed:\n" + rep.to_string(),
            rep.to_json());
    }
  }
}

// The metrics both engines report about the plan and the cache.
RunMetrics plan_metrics(const NetworkPlan& plan,
                        const PlanCache::LookupStats& cache_stats,
                        const InstantiateOptions& options) {
  RunMetrics metrics;
  metrics.plan_reused = cache_stats.plan_hit;
  metrics.template_reused = cache_stats.template_hit;
  metrics.plan_expand_ns = static_cast<Int>(cache_stats.expand_ns);
  if (options.plan_cache != nullptr) {
    metrics.plan_cache_bytes = options.plan_cache->bytes();
    metrics.plan_cache_evictions = options.plan_cache->evictions();
  }
  metrics.process_count = plan.procs.size();
  metrics.channel_count = plan.channels.size();
  metrics.computation_processes = plan.comp_count;
  metrics.io_processes = plan.io_count;
  metrics.buffer_processes = plan.buffer_count;
  metrics.physical_processors = options.partition_grid.dim() == 0
                                    ? plan.procs.size()
                                    : plan.clock_count;
  // Per-stream totals straight off the plan's channel->stream ids.
  for (const std::string& stream : plan.streams) {
    metrics.transfers_per_stream[stream] = 0;
  }
  return metrics;
}

// The VM: expand (or fetch) the plan, lower (or fetch) the program, run
// all instances as SoA lanes of one VM dispatch, and de-interleave the
// outputs back into the per-instance stores.
RunMetrics run_bytecode(const CompiledProgram& program, const LoopNest& nest,
                        const Env& sizes, IndexedStore* stores,
                        std::size_t batch,
                        const InstantiateOptions& options) {
  PlanCache::LookupStats cache_stats;
  PlanCache::BytecodeStats bc_stats;
  const PlanCache::Lowered lowered =
      lowered_for(program, nest, sizes, shape_of(options),
                  options.plan_cache, &cache_stats, &bc_stats);
  const NetworkPlan& plan = *lowered.plan;
  check_plan(program, nest, plan, options);

  // Gather every instance's input pipes into one instance-major buffer:
  // element e of lane l at in[e * batch + l] (the VM's lane layout, so a
  // rendezvous moves all lanes with one dense copy).
  const std::size_t elem_count = plan.elems.size();
  std::vector<Value> in(elem_count * batch, 0);
  std::vector<Value> out(elem_count * batch, 0);
  std::vector<Value> row;
  for (const NetworkPlan::ProcSpec& spec : plan.procs) {
    if (spec.kind != NetworkPlan::ProcKind::Input) continue;
    const std::size_t n = spec.elem_end - spec.elem_begin;
    row.resize(n);
    for (std::size_t lane = 0; lane < batch; ++lane) {
      stores[lane].gather(plan.streams[spec.stream],
                          plan.elems.data() + spec.elem_begin, n,
                          row.data());
      for (std::size_t k = 0; k < n; ++k) {
        in[(spec.elem_begin + k) * batch + lane] = row[k];
      }
    }
  }

  const VmResult result =
      run_vm_batched(*lowered.program, plan, in.data(), out.data(), batch,
                     options.threads, options.worker_pool, options.watchdog);

  for (const NetworkPlan::ProcSpec& spec : plan.procs) {
    if (spec.kind != NetworkPlan::ProcKind::Output) continue;
    const std::size_t n = spec.elem_end - spec.elem_begin;
    row.resize(n);
    for (std::size_t lane = 0; lane < batch; ++lane) {
      for (std::size_t k = 0; k < n; ++k) {
        row[k] = out[(spec.elem_begin + k) * batch + lane];
      }
      stores[lane].scatter(plan.streams[spec.stream],
                           plan.elems.data() + spec.elem_begin, n,
                           row.data());
    }
  }

  RunMetrics metrics = plan_metrics(plan, cache_stats, options);
  metrics.backend = "bytecode";
  metrics.batch = batch;
  metrics.bytecode_reused = bc_stats.hit;
  metrics.bytecode_lower_ns = static_cast<Int>(bc_stats.lower_ns);
  metrics.bytecode_instructions = lowered.program->instruction_count();
  metrics.makespan = result.makespan;
  metrics.total_transfers = result.total_transfers;
  metrics.statements = result.statements;
  metrics.scheduler_rounds = result.rounds;
  for (std::size_t c = 0; c < plan.channels.size(); ++c) {
    metrics.transfers_per_stream[plan.streams[plan.channels[c].stream]] +=
        result.channel_transfers[c];
  }
  return metrics;
}

// The coroutine scheduler: stand the plan's network up and run it. Output
// processes write through to the store, so a run that fails part way (an
// injected kill, a deadline) leaves the outputs it extracted in place.
RunMetrics run_interp(const CompiledProgram& program, const LoopNest& nest,
                      const Env& sizes, IndexedStore& store,
                      const InstantiateOptions& options) {
  PlanCache::LookupStats cache_stats;
  // A shared_ptr held for the whole run: LRU eviction by a concurrent
  // lookup must not free the plan under us.
  const std::shared_ptr<const NetworkPlan> plan =
      plan_for(program, nest, sizes, shape_of(options), options.plan_cache,
               &cache_stats);
  check_plan(program, nest, *plan, options);

  // Gather every input pipe's values into one flat buffer up front
  // (outputs are only written during the run, so this reads exactly what
  // a pipe-by-pipe read would).
  std::vector<Value> in_values(plan->elems.size(), 0);
  for (const NetworkPlan::ProcSpec& spec : plan->procs) {
    if (spec.kind != NetworkPlan::ProcKind::Input) continue;
    store.gather(plan->streams[spec.stream],
                 plan->elems.data() + spec.elem_begin,
                 spec.elem_end - spec.elem_begin,
                 in_values.data() + spec.elem_begin);
  }

  Scheduler sched;
  std::optional<FaultInjector> injector;
  if (options.faults != nullptr && !options.faults->empty()) {
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
  PlanBindings bindings;
  bindings.plan = plan.get();
  bindings.in_values = in_values.data();
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

  RunMetrics metrics = plan_metrics(*plan, cache_stats, options);
  metrics.scheduler_rounds = sched.round();
  metrics.faults_injected = injector ? injector->injected() : 0;
  metrics.makespan = sched.makespan();
  metrics.total_transfers = sched.total_transfers();
  for (const Process& p : sched.processes()) {
    metrics.statements += p.statements;
  }
  for (std::size_t c = 0; c < plan->channels.size(); ++c) {
    metrics.transfers_per_stream[plan->streams[plan->channels[c].stream]] +=
        chans[c]->transfers();
  }
  return metrics;
}

}  // namespace

// Instantiation is plan-driven: the symbolic program is lowered into an
// interned NetworkPlan (runtime/plan_cache — dense process and channel
// ids, flat element slices) by compiling a PlanTemplate and expanding it
// at `sizes`, and the chosen engine only stands the network up and runs
// it. With a PlanCache attached, the template is compiled once per
// (program, shape), each new size costs only an integer expansion, and
// repeated executions at a known size skip even that (and the lowering).
RunMetrics execute(const CompiledProgram& program, const LoopNest& nest,
                   const Env& sizes, IndexedStore& store,
                   const InstantiateOptions& options) {
  if (use_vm(options)) {
    return run_bytecode(program, nest, sizes, &store, 1, options);
  }
  return run_interp(program, nest, sizes, store, options);
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
  if (use_vm(options)) {
    return run_bytecode(program, nest, sizes, stores, batch, options);
  }
  // Interpreter: the batch is just `batch` independent runs of the same
  // plan (served from the cache after the first). The schedule metrics
  // are identical per instance, so the first run's describe the batch.
  RunMetrics metrics;
  for (std::size_t i = 0; i < batch; ++i) {
    RunMetrics m = run_interp(program, nest, sizes, stores[i], options);
    if (i == 0) metrics = std::move(m);
  }
  metrics.batch = batch;
  return metrics;
}

}  // namespace systolize
