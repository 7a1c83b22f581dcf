#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "analysis/verify.hpp"
#include "baseline/sequential.hpp"
#include "daemon.hpp"
#include "frontend/parser.hpp"
#include "reference.hpp"
#include "runtime/bytecode.hpp"
#include "runtime/instantiate.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/plan_template.hpp"
#include "runtime/vm.hpp"
#include "scheme/compiler.hpp"
#include "service/executor.hpp"
#include "service/json.hpp"
#include "workloads.hpp"

namespace perfbench {

using systolize::Design;
using systolize::Env;
using systolize::IndexedStore;
using systolize::NetworkPlan;
using systolize::Value;
using systolize::service::Json;
using systolize::service::Request;
using systolize::service::Response;

std::map<std::string, std::string> load_gallery(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".sa") continue;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    out[entry.path().stem().string()] = text.str();
  }
  if (out.empty()) throw std::runtime_error("no .sa designs in " + dir);
  return out;
}

Request run_request(const Pair& pair, Int batch, Int id) {
  Request req;
  req.id = id;
  req.op = "run";
  req.design = pair.design;
  req.n = pair.n;
  req.m = pair.m;
  req.batch = batch;
  return req;
}

Schedule schedule_of_json(const std::string& metrics_json) {
  const Json j = Json::parse(metrics_json);
  Schedule s;
  s.statements = j.int_or("statements", -1);
  s.makespan = j.int_or("makespan", -1);
  if (const Json* t = j.get("transfers_per_stream")) {
    for (const auto& [name, v] : t->fields()) s.transfers[name] = v.as_int();
  }
  return s;
}

Schedule ScheduleOracle::schedule(const Pair& pair) {
  auto it = programs_.find(pair.design);
  if (it == programs_.end()) {
    systolize::Design d = systolize::design_by_name(pair.design);
    auto prog = systolize::compile(d.nest, d.spec);
    it = programs_.emplace(pair.design, std::make_unique<Compiled>(
                                            Compiled{std::move(d), std::move(prog)}))
             .first;
  }
  const Compiled& c = *it->second;
  const Env sizes = sizes_for(c.design.nest, pair.n, pair.m);
  IndexedStore store = seeded_inputs(c.design.nest, sizes, 1);
  systolize::InstantiateOptions io;
  io.backend = systolize::Backend::Bytecode;
  const auto m = systolize::execute(c.prog, c.design.nest, sizes, store, io);
  const Int closed = closed_form_statements(c.design.nest.name(), pair.n, pair.m);
  if (m.statements != closed) {
    throw std::runtime_error(pair.design + ": in-process statements " +
                             std::to_string(m.statements) + ", closed form " +
                             std::to_string(closed));
  }
  return {m.statements, m.makespan, m.transfers_per_stream};
}

std::string check_response(const Response& r, const Pair& pair,
                           const Schedule& expected) {
  const std::string what = pair.design + " n=" + std::to_string(pair.n) +
                           " m=" + std::to_string(pair.m) + ": ";
  if (r.status != "ok" || r.verdict != "success") {
    return what + "status " + r.status + " verdict " + r.verdict + " " +
           r.message.substr(0, 200);
  }
  const Schedule got = schedule_of_json(r.metrics_json);
  if (got.statements != expected.statements) {
    return what + "statements " + std::to_string(got.statements) +
           ", closed form " + std::to_string(expected.statements);
  }
  if (!(got == expected)) {
    return what + "makespan " + std::to_string(got.makespan) +
           " or per-stream transfers differ from in-process execute "
           "(makespan " + std::to_string(expected.makespan) + ")";
  }
  return "";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

void add_loop_metrics(Outcome& out, const std::vector<Sample>& samples) {
  const std::size_t n = samples.size();
  if (n < kMinSamples) {
    throw std::runtime_error("only " + std::to_string(n) +
                             " samples; the 99th percentile needs " +
                             std::to_string(kMinSamples));
  }
  std::vector<double> lat;
  lat.reserve(n);
  double busy_s = 0, instances = 0;
  for (const Sample& s : samples) {
    lat.push_back(s.ms);
    busy_s += s.ms / 1e3;
    instances += s.instances;
  }
  std::sort(lat.begin(), lat.end());
  out.add("latency_p50_ms", percentile(lat, 50), "ms", n);
  out.add("latency_p99_ms", percentile(lat, 99), "ms", n);
  out.add("ops_per_s", static_cast<double>(n) / busy_s, "1/s", n);
  out.add("instances_per_s", instances / busy_s, "1/s", n);
  std::cout << "  p99 of " << n << " samples has " << samples_beyond(n, 99)
            << " beyond it; the highest percentile with ten beyond is p"
            << tail_percentile(n) << '\n';
}

double traced_ops_per_s(const std::vector<Sample>& samples) {
  double busy_s = 0;
  for (const Sample& s : samples) busy_s += s.ms / 1e3;
  return busy_s > 0 ? static_cast<double>(samples.size()) / busy_s : 0;
}

namespace {

/// Input values of every input pipe, aligned with plan.elems, replicated
/// over `lanes` instance-major lanes (the VM's layout).
std::vector<Value> vm_inputs(const NetworkPlan& plan, const IndexedStore& s,
                             std::size_t lanes) {
  std::vector<Value> one(plan.elems.size(), 0);
  for (const NetworkPlan::ProcSpec& spec : plan.procs) {
    if (spec.kind != NetworkPlan::ProcKind::Input) continue;
    s.gather(plan.streams[spec.stream], plan.elems.data() + spec.elem_begin,
             spec.elem_end - spec.elem_begin, one.data() + spec.elem_begin);
  }
  std::vector<Value> in(one.size() * lanes);
  for (std::size_t e = 0; e < one.size(); ++e) {
    for (std::size_t l = 0; l < lanes; ++l) in[e * lanes + l] = one[e];
  }
  return in;
}

struct DesignState {
  Design design;
  systolize::CompiledProgram prog;
  std::shared_ptr<const systolize::PlanTemplate> tmpl;
};

}  // namespace

void replay_layers(Tracer& t, const std::map<std::string, std::string>& sa,
                   const std::vector<Pair>& pairs, Outcome& out) {
  std::map<std::string, DesignState> designs;
  systolize::PlanCache warm;
  for (const Pair& p : pairs) {
    auto it = designs.find(p.design);
    if (it == designs.end()) {
      const auto text = sa.find(p.design);
      if (text == sa.end()) throw std::runtime_error("no " + p.design + ".sa");
      Tracer::Span root(t, "replay.design");
      Design d = [&] {
        Tracer::Span s(t, "frontend.parse_design");
        return systolize::frontend::parse_design(text->second);
      }();
      auto prog = [&] {
        Tracer::Span s(t, "scheme.compile");
        return systolize::compile(d.nest, d.spec);
      }();
      auto tmpl = [&] {
        Tracer::Span s(t, "plan_template.compile_template");
        return systolize::compile_template(prog, d.nest, {});
      }();
      t.value("plan_template.template_bytes",
              static_cast<double>(tmpl->memory_bytes()));
      it = designs.emplace(p.design, DesignState{std::move(d), std::move(prog),
                                                  std::move(tmpl)})
               .first;
    }
    const DesignState& ds = it->second;
    const auto& nest = ds.design.nest;
    const Env sizes = sizes_for(nest, p.n, p.m);
    const IndexedStore inputs = seeded_inputs(nest, sizes, 7);
    const Int statements = closed_form_statements(nest.name(), p.n, p.m);
    const std::string what =
        p.design + " n=" + std::to_string(p.n) + " m=" + std::to_string(p.m);

    Tracer::Span root(t, "replay.pair");
    {
      Tracer::Span s(t, "analysis.verify_design");
      if (systolize::verify_design(ds.prog, nest, sizes).errors() != 0) {
        out.wrong(what + ": verify_design reports errors");
      }
    }
    {
      Tracer::Span s(t, "plan_cache.build_plan");
      (void)systolize::build_plan(ds.prog, nest, sizes, {});
    }
    std::unique_ptr<NetworkPlan> plan;
    {
      Tracer::Span s(t, "plan_template.expand_template");
      plan = systolize::expand_template(*ds.tmpl, sizes);
    }
    t.value("plan_template.plan_bytes", static_cast<double>(plan->memory_bytes()));
    std::unique_ptr<systolize::BytecodeProgram> bc;
    {
      Tracer::Span s(t, "bytecode.lower_plan");
      bc = systolize::lower_plan(*plan);
    }
    t.value("bytecode.insns", static_cast<double>(bc->instruction_count()));
    {
      std::vector<Value> in = vm_inputs(*plan, inputs, 1);
      std::vector<Value> vout(in.size(), 0);
      Tracer::Span s(t, "vm.run_vm");
      const auto r = systolize::run_vm(*bc, *plan, in.data(), vout.data(), 1, 0, 1);
      if (r.statements != statements) out.wrong(what + ": VM statement count");
    }
    {
      std::vector<Value> in = vm_inputs(*plan, inputs, kBatch);
      std::vector<Value> vout(in.size(), 0);
      Tracer::Span s(t, "vm.run_vm_batched");
      const auto r = systolize::run_vm_batched(*bc, *plan, in.data(), vout.data(),
                                               kBatch, 1, nullptr);
      if (r.statements != statements) out.wrong(what + ": batched VM statements");
    }
    {
      systolize::InstantiateOptions io;
      io.plan_cache = &warm;
      io.backend = systolize::Backend::Interp;
      IndexedStore first = inputs;  // fills the cache: the next run is warm
      (void)systolize::execute(ds.prog, nest, sizes, first, io);
      IndexedStore store = inputs;
      systolize::RunMetrics m;
      {
        Tracer::Span s(t, "scheduler.execute_interp");
        m = systolize::execute(ds.prog, nest, sizes, store, io);
      }
      if (m.statements != statements) out.wrong(what + ": interp statements");
      const std::string bad =
          check_against_reference(nest.name(), inputs, store, p.n, p.m);
      if (!bad.empty()) out.wrong(bad);
    }
    {
      IndexedStore expected = inputs;
      Tracer::Span s(t, "baseline.run_sequential");
      systolize::run_sequential(nest, sizes, expected);
    }
  }
}

ServiceSplit replay_service(Tracer& t, Daemon& daemon,
                            const std::vector<Request>& priming,
                            const std::vector<Request>& reqs, Outcome& out) {
  systolize::service::Executor exec;
  systolize::service::Client client(daemon.socket());
  for (const Request& req : priming) {
    (void)exec.handle(req);
    (void)daemon.call(client, req);
  }
  ServiceSplit split;
  for (const Request& req : reqs) {
    t.set_op(static_cast<std::uint64_t>(req.id));
    Response wire;
    std::int64_t t0 = now_ns();
    {
      Tracer::Span s(t, "service.request");
      wire = daemon.call(client, req);
    }
    std::int64_t t1 = now_ns();
    split.request_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    Response local;
    t0 = now_ns();
    {
      Tracer::Span s(t, "service.handle");
      local = exec.handle(req);
    }
    t1 = now_ns();
    split.handle_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    for (const Response* r : {&wire, &local}) {
      if (r->status != "ok") {
        out.wrong("replayed " + req.op + " " + req.design + ": status " +
                  r->status + " " + r->message.substr(0, 200));
      }
    }
  }
  t.set_op(0);
  return split;
}

namespace {

Int stat(const Json& j, const char* section, const char* key) {
  const Json* s = j.get(section);
  return s == nullptr ? 0 : s->int_or(key, 0);
}

}  // namespace

void add_layer_metrics(Outcome& out, const std::vector<const Tracer*>& tracers,
                       const std::string& stats_before,
                       const std::string& stats_after, const ServiceSplit& split,
                       double traced_ops_per_s) {
  const auto sum = Tracer::summarize(tracers);
  auto self = [&](const char* span, double scale) {
    const auto it = sum.find(span);
    if (it == sum.end() || it->second.count == 0) return std::pair{0.0, std::size_t{0}};
    return std::pair{it->second.self_ns / static_cast<double>(it->second.count) /
                         scale,
                     it->second.count};
  };
  auto mean_value = [&](const char* name, double scale) {
    const auto it = sum.find(name);
    if (it == sum.end() || it->second.count == 0) return std::pair{0.0, std::size_t{0}};
    return std::pair{it->second.sum / static_cast<double>(it->second.count) / scale,
                     it->second.count};
  };
  auto put = [&](const char* name, std::pair<double, std::size_t> v,
                 const char* unit) { out.add(name, v.first, unit, v.second); };

  put("frontend.parse_us", self("frontend.parse_design", 1e3), "us");
  put("scheme.compile_ms", self("scheme.compile", 1e6), "ms");
  put("analysis.verify_ms", self("analysis.verify_design", 1e6), "ms");
  put("plan_cache.build_plan_ms", self("plan_cache.build_plan", 1e6), "ms");
  put("plan_template.compile_ms", self("plan_template.compile_template", 1e6), "ms");
  put("plan_template.expand_us", self("plan_template.expand_template", 1e3), "us");
  put("plan_template.plan_kib", mean_value("plan_template.plan_bytes", 1024), "KiB");
  put("plan_template.template_kib", mean_value("plan_template.template_bytes", 1024),
      "KiB");
  put("bytecode.lower_us", self("bytecode.lower_plan", 1e3), "us");
  put("bytecode.insns", mean_value("bytecode.insns", 1), "count");
  put("vm.run_us", self("vm.run_vm", 1e3), "us");
  put("vm.batch_lane_us", self("vm.run_vm_batched", 1e3 * kBatch), "us");
  put("scheduler.run_us", self("scheduler.execute_interp", 1e3), "us");
  put("baseline.sequential_us", self("baseline.run_sequential", 1e3), "us");
  std::vector<double> wire;
  for (std::size_t i = 0; i < split.request_us.size(); ++i) {
    wire.push_back(split.request_us[i] - split.handle_us[i]);
  }
  out.add("service.request_us", median(split.request_us), "us", split.request_us.size());
  out.add("service.handle_us", median(split.handle_us), "us", split.handle_us.size());
  out.add("service.wire_us", median(wire), "us", wire.size());

  const Json before = Json::parse(stats_before);
  const Json after = Json::parse(stats_after);
  auto delta = [&](const char* section, const char* key) {
    return stat(after, section, key) - stat(before, section, key);
  };
  const Int c_hits = delta("compile_cache", "hits");
  const Int c_all = c_hits + delta("compile_cache", "misses");
  const Int p_hits = delta("plan_cache", "hits");
  const Int p_all = p_hits + delta("plan_cache", "misses");
  const auto n = [](Int v) { return static_cast<std::size_t>(v); };
  out.add("service.compile_cache_hit_ratio",
          c_all ? static_cast<double>(c_hits) / static_cast<double>(c_all) : 0,
          "ratio", n(c_all));
  out.add("service.compile_cache_lookups", static_cast<double>(c_all), "count", 1);
  out.add("service.plan_hit_ratio",
          p_all ? static_cast<double>(p_hits) / static_cast<double>(p_all) : 0,
          "ratio", n(p_all));
  out.add("service.plan_lookups", static_cast<double>(p_all), "count", 1);
  out.add("service.template_compiles",
          static_cast<double>(stat(after, "plan_cache", "template_compiles")),
          "count", 1);
  out.add("service.plan_evictions",
          static_cast<double>(delta("plan_cache", "evictions")), "count", 1);
  out.add("trace.ops_per_s", traced_ops_per_s, "1/s", 1);
}

void write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers) {
  std::ofstream os(path);
  os << "op,name,id,parent,start_ns,end_ns\n";
  for (const Tracer* t : tracers) t->write_csv(os);
}

}  // namespace perfbench
