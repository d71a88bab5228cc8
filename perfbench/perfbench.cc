// Repository benchmark driver: measures the host time a user of the
// simulator waits for, on four workloads that each load a different layer.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--trace-dir <dir>]
//
// The driver only calls public API (harness, workload, os, mmu, vmem,
// metrics) and times each layer from outside, by wrapping its own calls
// into the layer: MakeTestBed is the setup span, WorkloadDriver::Begin the
// init span, the Step loop the steady span, and so on.  Every knob the
// library would otherwise resolve from the environment is pinned here, and
// any GEMINI_* variable in the environment aborts the run.
//
// A run repeats whole passes of its workload until the next pass would
// overrun --seconds (at least one pass; two with --trace 1, one untraced
// and one traced).  Output is JSON lines on stdout, one object per cell,
// per pass and per check, then an "end" record; run.py turns them into the
// benchmark's metrics and checks the per-cell digests.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "base/check.h"
#include "harness/experiment.h"
#include "harness/sweep_runner.h"
#include "harness/systems.h"
#include "metrics/counters.h"
#include "os/machine.h"
#include "trace/session.h"
#include "trace/tracer.h"
#include "workload/catalog.h"
#include "workload/driver.h"
#include "workload/workload.h"

extern char** environ;

namespace {

// --- pinned knobs ----------------------------------------------------------
// Each of these has an environment fallback somewhere in the library; the
// benchmark sets every one explicitly so the program it measures never
// depends on the caller's shell.
constexpr uint64_t kBatchSize = 64;           // DriverOptions::batch_size
constexpr uint64_t kStepChunk = 1 << 14;      // ops per WorkloadDriver::Step
constexpr double kSweepOpScale = 0.3;         // ScaleSpec for the sweeps
constexpr int kCellJobs = 4;                  // SweepRunnerOptions::jobs
constexpr uint32_t kCollocThreads = 2;        // ScaleOptions::threads
constexpr size_t kCollocCopies = 2;           // colloc_64 machines side by side
constexpr uint64_t kCollocQuantum = 256;      // ScaleOptions::quantum
constexpr uint64_t kRepartInterval = 2'000'000;  // BedOptions (kDynamic only)
constexpr uint32_t kRepartMinWays = 1;
constexpr size_t kTraceRing = 1 << 21;        // tracer events per phase

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void RefuseGeminiEnvironment() {
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "GEMINI_", 7) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; the benchmark "
                   "pins every knob itself\n",
                   *env);
      std::exit(2);
    }
  }
}

// --- digests ---------------------------------------------------------------

void Mix(uint64_t* digest, uint64_t value) {
  *digest = (*digest ^ value) * 1099511628211ull;
}

void MixDouble(uint64_t* digest, double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  Mix(digest, bits);
}

constexpr uint64_t kFnvBasis = 1469598103934665603ull;

// The deterministic RunResult fields bench_collocation's Digest mixes.
void MixResult(uint64_t* d, const workload::RunResult& r) {
  Mix(d, r.ops);
  Mix(d, r.requests);
  Mix(d, r.busy_cycles);
  Mix(d, r.tlb_hits);
  Mix(d, r.tlb_misses);
  Mix(d, r.faulting_accesses);
  MixDouble(d, r.throughput);
  MixDouble(d, r.mean_latency);
  MixDouble(d, r.p99_latency);
  MixDouble(d, r.alignment.well_aligned_rate);
}

uint64_t DigestResult(const workload::RunResult& r) {
  uint64_t d = kFnvBasis;
  MixResult(&d, r);
  return d;
}

uint64_t DigestCollocated(const harness::CollocatedManyResult& r) {
  uint64_t d = kFnvBasis;
  Mix(&d, r.epochs);
  Mix(&d, r.parallel_ops);
  Mix(&d, r.serial_ops);
  for (const workload::RunResult& vm : r.vms) {
    MixResult(&d, vm);
  }
  for (const metrics::VmInterferenceRow& row : r.interference.vms) {
    Mix(&d, row.tlb_misses);
    Mix(&d, row.shadow_misses);
    for (const uint64_t by : row.displaced_by) {
      Mix(&d, by);
    }
  }
  return d;
}

std::string Hex(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- JSON output -------------------------------------------------------------

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

// Counters and spans of one pass, keyed by name; summed over its cells.
using Layers = std::map<std::string, double>;

std::string LayersJson(const Layers& layers) {
  std::ostringstream out;
  out.precision(17);
  out << '{';
  bool first = true;
  for (const auto& [name, value] : layers) {
    out << (first ? "" : ", ") << Quote(name) << ": " << value;
    first = false;
  }
  out << '}';
  return out.str();
}

void EmitLine(const std::string& line) {
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

struct CellRecord {
  std::string name;
  std::string system;
  uint64_t digest = 0;
  uint64_t spec_ops = 0;
  double throughput = 0.0;
  double wall_ms = 0.0;
  double setup_ms = 0.0;
};

void EmitCell(int pass, bool traced, const CellRecord& c) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"type\": \"cell\", \"pass\": " << pass
      << ", \"traced\": " << (traced ? "true" : "false")
      << ", \"name\": " << Quote(c.name) << ", \"system\": " << Quote(c.system)
      << ", \"digest\": " << Quote(Hex(c.digest))
      << ", \"spec_ops\": " << c.spec_ops << ", \"throughput\": " << c.throughput
      << ", \"wall_ms\": " << c.wall_ms << ", \"setup_ms\": " << c.setup_ms
      << '}';
  EmitLine(out.str());
}

// --- options -----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 17;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_dir = ".";
};

// Everything one workload's cells are built from; all knobs explicit.
harness::BedOptions PinnedBed(uint64_t seed) {
  harness::BedOptions bed;
  bed.seed = seed;
  bed.tlb_mode = mmu::TlbShareMode::kPrivate;
  bed.tlb_partition_ways = 0;
  bed.tlb_repart_interval = kRepartInterval;
  bed.tlb_repart_min_ways = kRepartMinWays;
  bed.trace = trace::TraceConfig{};  // disabled; no files written
  return bed;
}

workload::DriverOptions PinnedDriver(uint64_t seed) {
  workload::DriverOptions options;
  options.seed = seed;
  options.batch_size = kBatchSize;
  options.teardown = false;  // the reused path calls TearDownAll itself
  return options;
}

// --- self-driven cells ---------------------------------------------------------

struct CellPlan {
  std::string name;
  harness::SystemKind system;
  workload::WorkloadSpec spec;
  harness::BedOptions bed;
  bool reused = false;  // SVM prefill + teardown before the measured run
};

uint64_t BuddyMutations(osim::Machine& machine, int32_t vm_id) {
  return machine.host().buddy().mutation_epoch() +
         machine.vm(vm_id).guest().buddy().mutation_epoch();
}

uint64_t TableMutations(osim::Machine& machine, int32_t vm_id) {
  osim::VirtualMachine& vm = machine.vm(vm_id);
  return vm.guest().table().mutations() + vm.host_slice().table().mutations();
}

// Per-kind tracer counts, drained after every span so one ring of
// kTraceRing events covers a phase instead of a whole cell.
struct TraceTally {
  std::map<trace::EventKind, uint64_t> kinds;
  uint64_t dropped = 0;

  void Drain(osim::Machine& machine) {
    trace::Tracer& tracer = machine.tracer();
    tracer.ForEach([&](const trace::Event& e) { ++kinds[e.kind]; });
    dropped += tracer.dropped();
    tracer.Enable(kTraceRing);  // clears the ring
  }
};

void AddTally(const TraceTally& tally, Layers* layers) {
  static constexpr std::pair<trace::EventKind, const char*> kKinds[] = {
      {trace::EventKind::kDaemonTick, "trace.daemon_ticks"},
      {trace::EventKind::kPromoteInPlace, "trace.promote_in_place"},
      {trace::EventKind::kPromoteMigrate, "trace.promote_migrate"},
      {trace::EventKind::kBookingBook, "trace.booking_book"},
      {trace::EventKind::kBookingAssign, "trace.booking_assign"},
  };
  for (const auto& [kind, name] : kKinds) {
    const auto it = tally.kinds.find(kind);
    (*layers)[name] += it == tally.kinds.end() ? 0.0 : double(it->second);
  }
  (*layers)["trace.dropped"] += static_cast<double>(tally.dropped);
}

void AddSnapshot(const std::string& prefix, const metrics::StackSnapshot& d,
                 Layers* layers) {
  Layers& l = *layers;
  l[prefix + "tlb_hits"] += double(d.tlb_hits);
  l[prefix + "tlb_misses"] += double(d.tlb_misses);
  l[prefix + "stale_hits"] += double(d.tlb_stale_hits);
  l[prefix + "shootdowns"] += double(d.tlb_shootdowns);
  l[prefix + "guest_promotions"] += double(d.guest_promotions);
  l[prefix + "host_promotions"] += double(d.host_promotions);
  l[prefix + "pages_copied"] += double(d.pages_copied);
  l[prefix + "demotions"] += double(d.demotions);
  l[prefix + "bookings_started"] += double(d.bookings_started);
  l[prefix + "bookings_expired"] += double(d.bookings_expired);
  l[prefix + "bucket_hits"] += double(d.bucket_hits);
  l[prefix + "batched_accesses"] += double(d.batched_accesses);
  l[prefix + "batch_fastpath_hits"] += double(d.batch_fastpath_hits);
  uint64_t mem = 0;
  uint64_t cached = 0;
  for (size_t i = 0; i < d.walk.guest_mem.size(); ++i) {
    mem += d.walk.guest_mem[i] + d.walk.host_mem[i];
    cached += d.walk.guest_cached[i] + d.walk.host_cached[i];
  }
  l[prefix + "walk_mem_refs"] += double(mem);
  l[prefix + "walk_cached_refs"] += double(cached);
  l[prefix + "walk_memo_hits"] +=
      double(d.walk.memo_hits + d.walk.memo_upper_hits);
}

// Times the fragmenter on a fresh machine built like MakeTestBed's (same
// config, seed and VM), since MakeTestBed fragments internally.
double ProbeFragmentMs(const CellPlan& plan) {
  if (!plan.bed.fragmented) {
    return 0.0;
  }
  osim::MachineConfig config;
  config.host_frames = plan.bed.host_frames;
  config.seed = plan.bed.seed;
  config.tlb_mode = plan.bed.tlb_mode;
  config.tlb_repart_interval = plan.bed.tlb_repart_interval;
  config.tlb_repart_min_ways = plan.bed.tlb_repart_min_ways;
  osim::Machine machine(config);
  osim::VirtualMachine& vm =
      harness::AddSystemVm(machine, plan.system, plan.bed.vm_gfn_count);
  const auto start = Clock::now();
  machine.FragmentHostMemory(plan.bed.host_fragmentation_target);
  machine.FragmentGuestMemory(vm.id(), plan.bed.fragmentation_target);
  return MsSince(start);
}

// Runs one cell: MakeTestBed, [prefill + TearDownAll], Begin, Step chunks,
// Finish.  With `layers`, also records the per-phase spans and counters.
CellRecord RunCell(const CellPlan& plan, Layers* layers) {
  CellRecord rec;
  rec.name = plan.name;
  rec.system = std::string(harness::SystemName(plan.system));
  rec.spec_ops = plan.spec.ops;

  const auto cell_start = Clock::now();
  harness::TestBed bed = harness::MakeTestBed(plan.system, plan.bed);
  rec.setup_ms = MsSince(cell_start);
  osim::Machine& machine = *bed.machine;
  workload::WorkloadDriver driver(bed.machine.get(), bed.vm_id);

  TraceTally tally;
  metrics::StackSnapshot first;
  if (layers != nullptr) {
    (*layers)["harness.setup_ms"] += rec.setup_ms;
    (*layers)["vmem.setup_mutations"] +=
        double(BuddyMutations(machine, bed.vm_id));
    (*layers)["mmu.table_mutations"] -=
        double(TableMutations(machine, bed.vm_id));
    machine.tracer().Enable(kTraceRing);
    first = metrics::Snapshot(machine, bed.vm_id);
  }

  if (plan.reused) {
    const auto prefill_start = Clock::now();
    driver.Begin(workload::SvmPrefill(plan.bed.vm_gfn_count),
                 PinnedDriver(plan.bed.seed + 500));
    while (driver.Step(kStepChunk) > 0) {
    }
    driver.Finish();
    if (layers != nullptr) {
      (*layers)["workload.prefill_ms"] += MsSince(prefill_start);
      tally.Drain(machine);
    }
    const auto teardown_start = Clock::now();
    driver.TearDownAll();
    if (layers != nullptr) {
      (*layers)["workload.teardown_ms"] += MsSince(teardown_start);
      tally.Drain(machine);
    }
  }

  const uint64_t mutations =
      layers != nullptr ? BuddyMutations(machine, bed.vm_id) : 0;
  const auto init_start = Clock::now();
  driver.Begin(plan.spec, PinnedDriver(plan.bed.seed + 1000));
  if (layers != nullptr) {
    (*layers)["os.init_ms"] += MsSince(init_start);
    const uint64_t now = BuddyMutations(machine, bed.vm_id);
    (*layers)["vmem.init_mutations"] += double(now - mutations);
    tally.Drain(machine);
  }

  metrics::StackSnapshot steady_begin;
  if (layers != nullptr) {
    steady_begin = metrics::Snapshot(machine, bed.vm_id);
  }
  const auto steady_start = Clock::now();
  uint64_t stepped = 0;
  for (uint64_t ran = 0; (ran = driver.Step(kStepChunk)) > 0;) {
    stepped += ran;
    if (layers != nullptr) {
      tally.Drain(machine);
    }
  }
  if (layers != nullptr) {
    (*layers)["mmu.steady_ms"] += MsSince(steady_start);
    (*layers)["mmu.steady_ops"] += double(stepped);
    AddSnapshot("steady.",
                metrics::Snapshot(machine, bed.vm_id).Delta(steady_begin),
                layers);
  }
  const workload::RunResult result = driver.Finish();
  rec.wall_ms = MsSince(cell_start);
  rec.digest = DigestResult(result);
  rec.throughput = result.throughput;
  if (layers != nullptr) {
    tally.Drain(machine);
    AddSnapshot("cell.", metrics::Snapshot(machine, bed.vm_id).Delta(first),
                layers);
    AddTally(tally, layers);
    (*layers)["mmu.table_mutations"] +=
        double(TableMutations(machine, bed.vm_id));
    (*layers)["cell.exec_ms"] += rec.wall_ms - rec.setup_ms;
  }
  return rec;
}

// --- workloads -------------------------------------------------------------------

std::vector<CellPlan> SweepPlan(const Args& args, bool reused) {
  std::vector<workload::WorkloadSpec> specs = workload::CleanSlateCatalog();
  std::vector<harness::SystemKind> systems = harness::AllSystems();
  double op_scale = kSweepOpScale;
  harness::BedOptions bed = PinnedBed(args.seed);
  if (args.tiny) {
    specs.resize(2);
    systems = {harness::SystemKind::kHostBVmB, harness::SystemKind::kGemini};
    op_scale = 0.02;
    bed.host_frames = 96 * 1024;
    bed.vm_gfn_count = 32 * 1024;
  }
  std::vector<CellPlan> plan;
  for (const workload::WorkloadSpec& spec : specs) {
    for (const harness::SystemKind system : systems) {
      CellPlan cell;
      cell.name = spec.name + " x " + std::string(harness::SystemName(system));
      cell.system = system;
      cell.spec = harness::ScaleSpec(spec, op_scale);
      if (args.tiny) {
        cell.spec.working_set_pages = std::min<uint64_t>(
            cell.spec.working_set_pages, 4096);
      }
      cell.bed = bed;
      cell.reused = reused;
      plan.push_back(std::move(cell));
    }
  }
  return plan;
}

// One unfragmented VM, uniform accesses over a 64 K-page working set: under
// Host-B-VM-B nearly every access misses the TLB and walks both
// dimensions; under THP nearly every access hits.  The hit cell gets eight
// times the ops so both cells take comparable host time.  Each cell runs
// twice, side by side on the sweep's four workers: on a 4-vCPU VM a lone
// single-threaded cell swung by up to 30% between runs, while the same
// cells with every vCPU busy stayed within 5%.  The copies must agree.
std::vector<CellPlan> TranslatePlan(const Args& args) {
  workload::WorkloadSpec spec;
  spec.name = "translate_uniform";
  spec.kind = workload::Kind::kThroughput;
  spec.alloc = workload::AllocPattern::kStaticUpfront;
  spec.access = workload::AccessPattern::kUniform;
  spec.working_set_pages = args.tiny ? 4096 : 65536;
  spec.vma_count = 8;
  spec.work_per_access = 100;
  const uint64_t miss_ops = args.tiny ? 40000 : 2'000'000;
  harness::BedOptions bed = PinnedBed(args.seed);
  bed.fragmented = false;
  bed.boot_noise_fraction = 0.0;
  if (args.tiny) {
    bed.host_frames = 64 * 1024;
    bed.vm_gfn_count = 16 * 1024;
  }
  std::vector<CellPlan> plan;
  for (const char* copy : {" #1", " #2"}) {
    CellPlan miss;
    miss.name = std::string("translate_miss x Host-B-VM-B") + copy;
    miss.system = harness::SystemKind::kHostBVmB;
    miss.spec = spec;
    miss.spec.ops = miss_ops;
    miss.bed = bed;
    plan.push_back(miss);
    CellPlan hit = miss;
    hit.name = std::string("translate_hit x THP") + copy;
    hit.system = harness::SystemKind::kThp;
    hit.spec.ops = 8 * miss_ops;
    plan.push_back(hit);
  }
  return plan;
}

// The collocated_64 shape of bench_collocation: 64 Gemini VMs, private
// TLBs, unfragmented, uniform 8 MiB working sets, quantum 256.
struct CollocPlan {
  std::vector<workload::WorkloadSpec> specs;
  harness::BedOptions bed;
  harness::ScaleOptions scale;
};

CollocPlan MakeCollocPlan(const Args& args, uint32_t threads) {
  workload::WorkloadSpec spec;
  spec.name = "colloc_uniform";
  spec.kind = workload::Kind::kThroughput;
  spec.alloc = workload::AllocPattern::kStaticUpfront;
  spec.access = workload::AccessPattern::kUniform;
  spec.working_set_pages = 2048;
  spec.vma_count = 4;
  spec.ops = args.tiny ? 4000 : 20000;
  spec.work_per_access = 200;
  CollocPlan plan;
  plan.specs.assign(args.tiny ? 8 : 64, spec);
  plan.bed = PinnedBed(args.seed);
  plan.bed.host_frames = 320 * 1024;
  plan.bed.vm_gfn_count = 8 * 1024;
  plan.bed.fragmented = false;
  plan.bed.boot_noise_fraction = 0.05;
  plan.scale.threads = threads;
  plan.scale.quantum = kCollocQuantum;
  return plan;
}

// Counts instant events by name in a Perfetto trace written by the harness,
// and reads its dropped-event total.
void TallyTraceFile(const std::string& path, Layers* layers) {
  std::ifstream in(path);
  SIM_CHECK_MSG(in.good(), "cannot read trace file %s", path.c_str());
  static constexpr std::pair<const char*, const char*> kNames[] = {
      {"\"name\": \"daemon_tick\", \"ph\": \"i\"", "trace.daemon_ticks"},
      {"\"name\": \"promote_in_place\", \"ph\": \"i\"", "trace.promote_in_place"},
      {"\"name\": \"promote_migrate\", \"ph\": \"i\"", "trace.promote_migrate"},
      {"\"name\": \"booking_book\", \"ph\": \"i\"", "trace.booking_book"},
      {"\"name\": \"booking_assign\", \"ph\": \"i\"", "trace.booking_assign"},
  };
  std::map<std::string, uint64_t> counts;
  std::string line;
  uint64_t dropped = 0;
  bool saw_dropped = false;
  while (std::getline(in, line)) {
    for (const auto& [needle, name] : kNames) {
      if (line.find(needle) != std::string::npos) {
        ++counts[name];
      }
    }
    if (const size_t at = line.find("\"dropped\": "); at != std::string::npos) {
      dropped = std::strtoull(line.c_str() + at + 11, nullptr, 10);
      saw_dropped = true;
    }
  }
  SIM_CHECK_MSG(saw_dropped, "trace file %s has no dropped count",
                path.c_str());
  for (const auto& [needle, name] : kNames) {
    (*layers)[name] += double(counts[name]);
  }
  (*layers)["trace.dropped"] += double(dropped);
}

// Runs copy `copy` of the colloc_64 machine.
CellRecord RunColloc(const Args& args, uint32_t threads, size_t copy,
                     Layers* layers) {
  CollocPlan plan = MakeCollocPlan(args, threads);
  std::string trace_path;
  if (layers != nullptr) {
    // The harness owns this machine, so its tracer is read back from the
    // trace file it writes.  The sampler period is beyond any run's end:
    // only the tracer's events are wanted.
    plan.bed.trace.enabled = true;
    plan.bed.trace.dir = args.trace_dir;
    plan.bed.trace.stem = "perfbench_colloc_64_" + std::to_string(copy);
    plan.bed.trace.sample_period = base::Cycles{1} << 62;
    plan.bed.trace.ring_capacity = kTraceRing;
    trace_path = plan.bed.trace.dir + "/" + plan.bed.trace.stem;
  }
  CellRecord cell;
  const auto start = Clock::now();
  const harness::CollocatedManyResult result = harness::RunCollocatedMany(
      harness::SystemKind::kGemini, plan.specs, plan.bed, plan.scale);
  cell.wall_ms = MsSince(start);
  cell.setup_ms = cell.wall_ms - result.exec_wall_ms;
  cell.name = "colloc_64 x Gemini #" + std::to_string(copy + 1);
  cell.system = "Gemini";
  cell.digest = DigestCollocated(result);
  for (const workload::RunResult& vm : result.vms) {
    cell.throughput += vm.throughput / double(result.vms.size());
  }
  for (const workload::WorkloadSpec& spec : plan.specs) {
    cell.spec_ops += spec.ops;
  }
  if (layers != nullptr) {
    Layers& l = *layers;
    l["harness.setup_ms"] += cell.setup_ms;
    l["workload.exec_ms"] += result.exec_wall_ms;
    l["cell.exec_ms"] += result.exec_wall_ms;
    l["workload.epochs"] += double(result.epochs);
    l["workload.parallel_ops"] += double(result.parallel_ops);
    l["workload.serial_ops"] += double(result.serial_ops);
    for (const workload::RunResult& vm : result.vms) {
      AddSnapshot("cell.", vm.counters, layers);
      AddSnapshot("steady.", vm.counters, layers);
    }
    TallyTraceFile(trace_path + ".trace.json", layers);
    std::remove((trace_path + ".trace.json").c_str());
    std::remove((trace_path + ".series.csv").c_str());
  }
  return cell;
}

// --- passes ----------------------------------------------------------------------

struct PassResult {
  double wall_ms = 0.0;
  double setup_ms = 0.0;
  Layers layers;
};

PassResult RunPass(const Args& args, int pass, bool traced) {
  PassResult out;
  const bool colloc = args.workload == "colloc_64";
  std::vector<CellPlan> plan;
  if (args.workload == "sweep_clean" || args.workload == "sweep_reused") {
    plan = SweepPlan(args, /*reused=*/args.workload == "sweep_reused");
  } else if (args.workload == "translate_bound") {
    plan = TranslatePlan(args);
  }
  // The fragmenter probes are measurement, not workload: they run before
  // the pass's clock starts.
  if (traced) {
    for (const CellPlan& cell : plan) {
      out.layers["vmem.fragment_ms"] += ProbeFragmentMs(cell);
    }
  }
  // Every workload keeps all four vCPUs busy: cells run on kCellJobs
  // workers, and colloc_64 runs two copies of its 2-thread machine side by
  // side (see TranslatePlan for why).
  const size_t count = colloc ? kCollocCopies : plan.size();
  std::vector<CellRecord> records(count);
  std::vector<Layers> cell_layers(count);
  harness::SweepRunnerOptions options;
  options.jobs = colloc ? kCollocCopies : kCellJobs;
  options.progress = false;
  const auto start = Clock::now();
  harness::SweepRunner(options).Run(count, [&](size_t i) {
    Layers* layers = traced ? &cell_layers[i] : nullptr;
    records[i] = colloc ? RunColloc(args, kCollocThreads, i, layers)
                        : RunCell(plan[i], layers);
  });
  double cell_setup_ms = 0.0;
  double cell_wall_ms = 0.0;
  for (size_t i = 0; i < count; ++i) {
    cell_setup_ms += records[i].setup_ms;
    cell_wall_ms += records[i].wall_ms;
    for (const auto& [name, value] : cell_layers[i]) {
      out.layers[name] += value;
    }
    EmitCell(pass, traced, records[i]);
  }
  // Cells overlap on the workers, so the pass's setup time is the setup
  // share of the cells' summed time, applied to the pass's wall.
  out.setup_ms = MsSince(start) * cell_setup_ms / cell_wall_ms;
  out.wall_ms = MsSince(start);
  std::ostringstream line;
  line.precision(17);
  line << "{\"type\": \"pass\", \"pass\": " << pass
       << ", \"traced\": " << (traced ? "true" : "false")
       << ", \"wall_ms\": " << out.wall_ms << ", \"setup_ms\": " << out.setup_ms
       << ", \"layers\": " << LayersJson(out.layers) << '}';
  EmitLine(line.str());
  return out;
}

// The colloc_64 determinism witness: the 1-thread run of the same epoch
// schedule must reproduce the 2-thread digest.
void EmitThreadCheck(const Args& args) {
  const CellRecord serial = RunColloc(args, 1, 0, nullptr);
  EmitLine("{\"type\": \"thread_check\", \"threads\": 1, \"digest\": " +
           Quote(Hex(serial.digest)) + "}");
}

bool Optimized() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

void EmitEnd(const Args& args, int passes) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::ostringstream out;
  out << "{\"type\": \"end\", \"passes\": " << passes
      << ", \"peak_rss_kib\": " << usage.ru_maxrss
      << ", \"provenance\": {\"compiler\": " << Quote(PERFBENCH_COMPILER)
      << ", \"cxx_flags\": " << Quote(PERFBENCH_CXX_FLAGS)
      << ", \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE)
      << ", \"optimized\": " << (Optimized() ? "true" : "false")
      << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ", \"seed\": " << args.seed << ", \"tiny\": "
      << (args.tiny ? "true" : "false") << ", \"knobs\": {\"batch_size\": "
      << kBatchSize << ", \"step_chunk\": " << kStepChunk
      << ", \"sweep_op_scale\": " << kSweepOpScale
      << ", \"cell_jobs\": " << kCellJobs
      << ", \"colloc_threads\": " << kCollocThreads
      << ", \"colloc_copies\": " << kCollocCopies
      << ", \"colloc_quantum\": " << kCollocQuantum
      << ", \"tlb_mode\": \"private\", \"repart_interval\": "
      << kRepartInterval << ", \"repart_min_ways\": " << kRepartMinWays
      << ", \"trace_ring\": " << kTraceRing << "}}}";
  EmitLine(out.str());
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <sweep_clean|"
               "sweep_reused|colloc_64|translate_bound> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--trace-dir <dir>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("malformed value for " + flag).c_str());
    }
  }
  if (args.workload != "sweep_clean" && args.workload != "sweep_reused" &&
      args.workload != "colloc_64" && args.workload != "translate_bound") {
    Usage("unknown workload");
  }
  if (!(args.seconds > 0.0)) {
    Usage("--seconds must be positive");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  RefuseGeminiEnvironment();
  const Args args = ParseArgs(argc, argv);
  const auto start = Clock::now();
  const double budget_ms = args.seconds * 1000.0;
  if (args.workload == "colloc_64") {
    EmitThreadCheck(args);
  }
  // Passes repeat while the next one (estimated as the slowest so far)
  // still fits the budget.  A traced run alternates untraced and traced
  // passes so its overhead is measured under the same conditions.
  int pass = 0;
  double slowest_ms = 0.0;
  do {
    const auto pass_start = Clock::now();
    RunPass(args, pass++, /*traced=*/false);
    if (args.trace) {
      RunPass(args, pass++, /*traced=*/true);
    }
    slowest_ms = std::max(slowest_ms, MsSince(pass_start));
  } while (MsSince(start) + slowest_ms <= budget_ms);
  EmitEnd(args, pass);
  return 0;
}
