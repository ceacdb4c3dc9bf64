/**
 * @file
 * Host-time benchmark of the simulator's user-facing runs (NOTES.md).
 *
 * One process, one measuring thread. A workload is a list of jobs; a
 * pass runs every job once, closed loop, in an order drawn from the
 * seed. Each job is driven phase by phase through the simulator's
 * public entry points — Workload::build / TestCase::build,
 * instrumentModule, ir::verifyOrDie, Machine + installLibc,
 * Machine::run, syncStats + snapshot — and the thread CPU clock is read
 * at every boundary, so layers are timed without tracing inside the
 * program. Every time is scaled to reference speed by a calibration
 * kernel timed next to the jobs (NOTES.md, "Noise").
 *
 *   perfbench --workload matrix-jit|matrix-profiled|juliet --seed N
 *             --seconds S --trace 0|1 --reference FILE
 *             [--trace-out FILE]
 *   perfbench --write-reference FILE
 *
 * The last line of stdout is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}. --trace 0 reports the end-to-end metrics,
 * --trace 1 the per-layer ones.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/instrument.hh"
#include "ir/verifier.hh"
#include "juliet/juliet.hh"
#include "oracle/oracle.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/profile.hh"
#include "vm/jit.hh"
#include "vm/libc_model.hh"
#include "vm/machine.hh"
#include "vm/superblock.hh"
#include "vm/tier.hh"
#include "workloads/harness.hh"

using namespace infat;
using workloads::Config;

namespace {

// --- clocks ---------------------------------------------------------

double
clockSeconds(clockid_t id)
{
    timespec ts;
    clock_gettime(id, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double threadCpu() { return clockSeconds(CLOCK_THREAD_CPUTIME_ID); }
double wallNow() { return clockSeconds(CLOCK_MONOTONIC); }

const double processStart = wallNow();

// --- statistics -----------------------------------------------------

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Inter-quartile range as a share of the median, in percent, with the
 *  quartiles computed as Python's statistics.quantiles(v, n=4). */
double
iqrPct(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t m = v.size() + 1;
    auto quartile = [&](size_t i) {
        size_t j = i * m / 4;
        double delta = static_cast<double>(i * m - j * 4);
        j = std::clamp<size_t>(j, 1, v.size() - 1);
        return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
    };
    double med = median(v);
    return med == 0 ? 0 : 100 * (quartile(3) - quartile(1)) / med;
}

// --- host speed -----------------------------------------------------

volatile uint64_t calibrationSink;

/**
 * Calibration kernel: a fixed amount of allocation-heavy work —
 * string-keyed maps and small heap vectors, built and torn down —
 * returning its thread CPU seconds. On the shared host its time follows
 * the host's speed changes the way the simulator's own allocation- and
 * cache-bound code does (NOTES.md, "Noise"), while it shares no code
 * with the simulator, so no change to the simulator moves it.
 */
double
calibrationKernel()
{
    double t0 = threadCpu();
    uint64_t sum = 0;
    for (int round = 0; round < 300; ++round) {
        std::map<std::string, uint64_t> names;
        std::vector<std::unique_ptr<std::vector<uint64_t>>> blocks;
        for (int i = 0; i < 60; ++i) {
            names["key_" + std::to_string(i * round)] = i;
            blocks.push_back(std::make_unique<std::vector<uint64_t>>(
                i + 8, static_cast<uint64_t>(i)));
        }
        for (const auto &[name, value] : names)
            sum += value + name.size();
        sum += blocks.size();
    }
    calibrationSink = sum;
    return threadCpu() - t0;
}

/**
 * The kernel's CPU time that defines reference speed: about its time on
 * an uncontended vCPU of the 4-vCPU Xeon host the benchmark was tuned
 * on. It fixes the unit of every reported time, nothing else.
 */
constexpr double referenceKernelSeconds = 0.0035;

/** Job CPU time between two kernel runs inside a pass. */
constexpr double kernelInterval = 0.1;

// --- spans ----------------------------------------------------------

/** In-memory spans, written as Chrome trace events at exit. */
class SpanLog
{
  public:
    int64_t
    open(const char *name, uint32_t job, int64_t parent)
    {
        spans_.push_back({name, nowUs(), 0, parent, job});
        return static_cast<int64_t>(spans_.size() - 1);
    }

    void close(int64_t id) { spans_[static_cast<size_t>(id)].end = nowUs(); }

    size_t size() const { return spans_.size(); }

    /**
     * Write every span as a complete ('X') event on one track. Spans
     * are opened in start order and a parent opens before its
     * children, so ts is nondecreasing.
     */
    void
    write(const std::string &path) const
    {
        std::ofstream os(path);
        fatal_if(!os, "cannot open %s for writing", path.c_str());
        JsonWriter w(os);
        w.beginObject();
        w.key("traceEvents");
        w.beginArray();
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            w.beginObject();
            w.field("name", s.name);
            w.field("cat", "exec");
            w.field("ph", "X");
            w.field("ts", s.start);
            w.field("dur", s.end - s.start);
            w.field("pid", uint64_t{1});
            w.field("tid", uint64_t{1});
            w.key("args");
            w.beginObject();
            w.field("span", static_cast<uint64_t>(i));
            w.field("parent", s.parent);
            w.field("job", static_cast<uint64_t>(s.job));
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.endObject();
        os << "\n";
    }

  private:
    struct Span
    {
        const char *name;
        uint64_t start;
        uint64_t end;
        int64_t parent;
        uint32_t job;
    };

    static uint64_t
    nowUs()
    {
        return static_cast<uint64_t>((wallNow() - processStart) * 1e6);
    }

    std::vector<Span> spans_;
};

/**
 * Re-read a written trace and apply the well-formedness rules of
 * tools/trace_check.cc: every event has name/cat/ph/ts/pid/tid, known
 * phase and category, nondecreasing ts per tid, 'X' events carry dur.
 */
bool
traceWellFormed(const std::string &path, size_t expected_events)
{
    std::string err;
    std::optional<JsonValue> doc = jsonParseFile(path, &err);
    if (!doc)
        return false;
    const JsonValue *events = doc->find("traceEvents");
    if (!events || !events->isArray() ||
        events->arr.size() != expected_events)
        return false;
    std::set<std::string> cats;
    for (unsigned i = 0;
         i < static_cast<unsigned>(TraceCategory::NumCategories); ++i)
        cats.insert(toString(static_cast<TraceCategory>(i)));
    std::map<uint64_t, uint64_t> last_ts;
    for (const JsonValue &ev : events->arr) {
        const JsonValue *cat = ev.find("cat");
        const JsonValue *ph = ev.find("ph");
        const JsonValue *ts = ev.find("ts");
        const JsonValue *tid = ev.find("tid");
        if (!ev.find("name") || !cat || !ph || !ts || !tid ||
            !ev.find("pid"))
            return false;
        if (ph->str != "X" || !ev.find("dur") || !cats.count(cat->str))
            return false;
        auto it = last_ts.find(tid->asUint());
        if (it != last_ts.end() && ts->asUint() < it->second)
            return false;
        last_ts[tid->asUint()] = ts->asUint();
    }
    return true;
}

// --- jobs -----------------------------------------------------------

enum Phase : unsigned
{
    Build,
    Instrument,
    Verify,
    MachineSetup,
    Exec,
    OracleExec,
    Snapshot,
    NumPhases,
};

const char *const phaseNames[NumPhases] = {
    "build", "instrument", "verify",  "machine_setup",
    "exec",  "oracle_exec", "snapshot",
};

/** Phases before Machine::run: what setup_s sums. */
bool
isSetup(unsigned p)
{
    return p == Build || p == Instrument || p == Verify ||
           p == MachineSetup;
}

const Config matrixConfigs[] = {
    Config::Baseline,         Config::Subheap,          Config::Wrapped,
    Config::SubheapNoPromote, Config::WrappedNoPromote,
};

/** One unit of work: a §5.2 matrix run or one Juliet case run. */
struct Job
{
    /** Non-null for a matrix job. */
    const workloads::Workload *workload = nullptr;
    Config config = Config::Baseline;
    juliet::TestCase testCase{};
    AllocatorKind allocator = AllocatorKind::Subheap;
    bool oracle = false;

    bool matrix() const { return workload != nullptr; }

    std::string
    name() const
    {
        if (matrix())
            return std::string(workload->name) + "/" +
                   workloads::toString(config);
        return testCase.name() + "/" + toString(allocator) +
               (oracle ? "/oracle" : "");
    }
};

/** What one job observably produced. */
struct Outcome
{
    uint64_t checksum = 0;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    /** A trap of the kind the case tests for (spatial/temporal). */
    bool trapped = false;
    /** Any other trap: always a failure. */
    bool unexpectedTrap = false;
    std::string trapDetail;
    std::string reportJson;
    uint64_t promotesInserted = 0;
    uint64_t utlbHits = 0;
    uint64_t oracleChecks = 0;
    uint64_t oracleAbstained = 0;
    uint64_t oracleFn = 0;
    uint64_t oracleFp = 0;
    uint64_t oracleTemporalFn = 0;
    uint64_t oracleTemporalFp = 0;
    StatSnapshot stats;
};

/** CPU seconds of one job execution, per phase and in total. */
struct Sample
{
    double phase[NumPhases] = {};
    double total = 0;
    /** Converts these CPU seconds to reference-speed seconds. */
    double scale = 1;
};

/** Charges thread CPU time to the current phase at each boundary. */
class PhaseClock
{
  public:
    PhaseClock(Sample &sample, SpanLog *log, int64_t parent, uint32_t job)
        : sample_(sample), log_(log), parent_(parent), job_(job)
    {}

    void
    enter(Phase p)
    {
        double now = threadCpu();
        close(now);
        cur_ = p;
        since_ = now;
        if (log_)
            span_ = log_->open(phaseNames[p], job_, parent_);
    }

    void stop() { close(threadCpu()); cur_ = NumPhases; }

  private:
    void
    close(double now)
    {
        if (cur_ == NumPhases)
            return;
        sample_.phase[cur_] += now - since_;
        if (log_)
            log_->close(span_);
    }

    Sample &sample_;
    SpanLog *log_;
    int64_t parent_;
    uint32_t job_;
    unsigned cur_ = NumPhases;
    double since_ = 0;
    int64_t span_ = -1;
};

/** The VmConfig runWorkload builds for a §5.2 configuration. */
VmConfig
matrixVmConfig(Config config)
{
    VmConfig vm;
    vm.instrumented = config != Config::Baseline;
    vm.allocator = (config == Config::Subheap ||
                    config == Config::SubheapNoPromote)
                       ? AllocatorKind::Subheap
                       : AllocatorKind::Wrapped;
    vm.ifp.noPromote = config == Config::SubheapNoPromote ||
                       config == Config::WrappedNoPromote;
    return vm;
}

/**
 * Run @p job phase by phase: the same calls, in the same order and with
 * the same configuration, as workloads::runWorkload (matrix jobs),
 * juliet::runCase and juliet::runCaseWithOracle (Juliet jobs), plus the
 * harness's stat snapshot. selfCheck() holds the two paths equal.
 */
Outcome
runJob(const Job &job, bool profiled, Sample &sample, SpanLog *log,
       int64_t parent, uint32_t id)
{
    PhaseClock clock(sample, log, parent, id);
    Outcome out;
    ir::Module module;
    clock.enter(Build);
    if (job.matrix())
        job.workload->build(module);
    else
        job.testCase.build(module);

    bool instrumented = !job.matrix() || job.config != Config::Baseline;
    InstrumentResult inst;
    if (instrumented) {
        clock.enter(Instrument);
        inst = instrumentModule(module);
        out.promotesInserted = inst.stats.promotesInserted;
        // runCase / runCaseWithOracle do not verify; the harness does.
        if (job.matrix()) {
            clock.enter(Verify);
            ir::verifyOrDie(module);
        }
    }

    clock.enter(MachineSetup);
    VmConfig config;
    if (job.matrix()) {
        config = matrixVmConfig(job.config);
    } else {
        config.instrumented = true;
        config.allocator = job.allocator;
        config.useCache = false;
        config.forensics = !job.oracle;
    }
    // Declared before the machine, which holds raw pointers to them
    // until it is destroyed.
    std::unique_ptr<GuestProfiler> profiler;
    std::unique_ptr<oracle::ShadowOracle> shadow;
    Machine machine(module, instrumented ? &inst.layouts : nullptr,
                    config);
    installLibc(machine);
    if (profiled) {
        profiler = std::make_unique<GuestProfiler>();
        machine.setProfiler(profiler.get());
    }
    if (job.oracle) {
        shadow = std::make_unique<oracle::ShadowOracle>();
        machine.setOracle(shadow.get());
    }

    clock.enter(job.oracle ? OracleExec : Exec);
    try {
        out.checksum = machine.run();
    } catch (const GuestTrap &trap) {
        bool expected = !job.matrix() &&
                        (job.testCase.temporal()
                             ? trap.isSafetyViolation()
                             : trap.isSpatialViolation());
        out.trapped = expected;
        out.unexpectedTrap = !expected;
        out.trapDetail = trap.what();
        if (trap.report())
            out.reportJson = trap.report()->json();
    }

    clock.enter(Snapshot);
    out.instructions = machine.instructions();
    out.cycles = machine.cycles();
    out.utlbHits = *machine.mem().utlbHitsForJit();
    machine.syncStats();
    out.stats = machine.statRegistry().snapshot();
    if (profiler)
        out.stats.sections["profile"] = profiler->sectionJson();
    if (shadow) {
        out.oracleChecks = shadow->checks();
        out.oracleAbstained = shadow->abstained();
        out.oracleFn = shadow->falseNegatives();
        out.oracleFp = shadow->falsePositives();
        out.oracleTemporalFn = shadow->temporalFalseNegatives();
        out.oracleTemporalFp = shadow->temporalFalsePositives();
    }
    clock.stop();
    return out;
}

// --- reference and verification --------------------------------------

/** workload/config -> (checksum, instructions, cycles). */
using Reference =
    std::map<std::string, std::array<uint64_t, 3>>;

Reference
readReference(const std::string &path)
{
    Reference ref;
    std::ifstream is(path);
    fatal_if(!is, "cannot read reference %s", path.c_str());
    std::string line, key;
    uint64_t checksum, instructions, cycles;
    while (std::getline(is, line)) {
        std::istringstream fields(line);
        if (line.empty() || line[0] == '#')
            continue;
        fatal_if(!(fields >> key >> checksum >> instructions >> cycles),
                 "malformed reference line: %s", line.c_str());
        ref[key] = {checksum, instructions, cycles};
    }
    return ref;
}

/** Regenerate the reference through the public harness entry point. */
int
writeReference(const std::string &path)
{
    std::ofstream os(path);
    fatal_if(!os, "cannot open %s for writing", path.c_str());
    os << "# workload/config checksum instructions cycles, from "
          "workloads::runWorkload\n";
    for (const workloads::Workload &w : workloads::all()) {
        for (Config c : matrixConfigs) {
            workloads::RunResult r = workloads::runWorkload(w, c);
            os << w.name << "/" << workloads::toString(c) << " "
               << r.checksum << " " << r.instructions << " " << r.cycles
               << "\n";
        }
    }
    return 0;
}

/**
 * Matrix: checksum, instructions and cycles equal the reference (whose
 * five configurations of a workload share one checksum). Juliet: a bad
 * case traps or is an explained miss, a good case does not trap, and
 * the oracle reports no unexplained FN/FP.
 */
bool
verified(const Job &job, const Outcome &out, const Reference &ref)
{
    if (out.unexpectedTrap)
        return false;
    if (job.matrix()) {
        auto it = ref.find(job.name());
        auto base = ref.find(std::string(job.workload->name) + "/" +
                             workloads::toString(Config::Baseline));
        return it != ref.end() && base != ref.end() &&
               it->second[0] == base->second[0] &&
               it->second ==
                   std::array<uint64_t, 3>{out.checksum, out.instructions,
                                           out.cycles};
    }
    const char *bucket = job.testCase.expectedMissBucket();
    bool detection_ok = job.testCase.bad
                            ? (out.trapped || bucket != nullptr)
                            : !out.trapped;
    if (!job.oracle)
        return detection_ok;
    bool temporal_ok = out.oracleTemporalFp == 0 &&
                       (out.oracleTemporalFn == 0 || bucket != nullptr);
    return detection_ok && out.oracleFn == 0 && out.oracleFp == 0 &&
           temporal_ok && out.oracleChecks > 0;
}

/**
 * Run @p job through the public one-call entry point and compare with
 * the phase-by-phase result: checksum, instructions, cycles and the
 * whole stat snapshot (matrix); trap verdict, message, forensics
 * report and oracle counters (Juliet).
 */
bool
selfCheck(const Job &job, bool profiled, const Outcome &mine)
{
    if (job.matrix()) {
        GuestProfiler profiler;
        workloads::Observability obs;
        if (profiled)
            obs.profiler = &profiler;
        workloads::RunResult r =
            workloads::runWorkload(*job.workload, job.config, obs);
        return r.checksum == mine.checksum &&
               r.instructions == mine.instructions &&
               r.cycles == mine.cycles &&
               r.stats.toJson() == mine.stats.toJson();
    }
    if (!job.oracle) {
        juliet::CaseOutcome c =
            juliet::runCase(job.testCase, job.allocator);
        std::string report = c.report ? c.report->json() : "";
        return c.trapped == mine.trapped &&
               c.trapDetail == mine.trapDetail &&
               report == mine.reportJson;
    }
    juliet::OracleCaseOutcome c =
        juliet::runCaseWithOracle(job.testCase, job.allocator);
    return c.outcome.trapped == mine.trapped &&
           c.outcome.trapDetail == mine.trapDetail &&
           c.checks == mine.oracleChecks &&
           c.abstained == mine.oracleAbstained &&
           c.falseNegatives == mine.oracleFn &&
           c.falsePositives == mine.oracleFp &&
           c.temporalFalseNegatives == mine.oracleTemporalFn &&
           c.temporalFalsePositives == mine.oracleTemporalFp;
}

// --- layer counts ---------------------------------------------------

using Counts = std::map<std::string, uint64_t>;

uint64_t
scalar(const StatSnapshot &s, const char *group, const char *name)
{
    const StatSnapshot::Group *g = s.findGroup(group);
    if (!g)
        return 0;
    auto it = g->scalars.find(name);
    return it == g->scalars.end() ? 0 : it->second;
}

/** Add one job's exact simulated and host-engine counts to @p c. */
void
addCounts(Counts &c, const Job &job, const Outcome &out)
{
    const StatSnapshot &s = out.stats;
    c["vm.instructions"] += out.instructions;
    c["vm.cycles"] += out.cycles;
    c["vm.calls"] += scalar(s, "vm", "calls");
    c["compiler.promotes_inserted"] += out.promotesInserted;
    for (const char *n : {"functions", "records", "fused_exec",
                          "checks_full", "checks_elided"})
        c[std::string("sb.") + n] += scalar(s, "vm.superblock", n);
    for (const char *n : {"jit_promotions", "jit_bailouts",
                          "call_inlined", "jit_code_bytes"})
        c[std::string("tier.") + n] += scalar(s, "vm.tier", n);
    c["tier.jit_block_entries"] += scalar(s, "vm.tier", "jit_blocks");

    // The mem group exports uTLB hits only through its hit-rate
    // formula; the hit count itself is read off the machine.
    const StatSnapshot::Group *mem = s.findGroup("mem");
    double rate = mem && mem->formulas.count("utlb_hit_rate")
                      ? mem->formulas.at("utlb_hit_rate")
                      : 0.0;
    uint64_t misses =
        rate > 0 ? static_cast<uint64_t>(std::llround(
                       static_cast<double>(out.utlbHits) / rate -
                       static_cast<double>(out.utlbHits)))
                 : 0;
    c["mem.utlb_hits"] += out.utlbHits;
    c["mem.utlb_misses"] += misses;
    c["mem.pages_mapped"] += scalar(s, "mem", "pages_mapped");
    c["l1d.hits"] += scalar(s, "l1d", "hits");
    c["l1d.misses"] += scalar(s, "l1d", "misses");
    for (const char *n :
         {"promotes", "valid_promotes", "meta_fetches", "scheme_local",
          "scheme_subheap", "scheme_global", "bypass_legacy",
          "bypass_null"})
        c[std::string("promote.") + n] += scalar(s, "promote", n);
    uint64_t mallocs = scalar(s, "runtime", "ifp_mallocs");
    c["runtime.ifp_mallocs"] += mallocs;
    AllocatorKind alloc =
        job.matrix() ? matrixVmConfig(job.config).allocator
                     : job.allocator;
    c[alloc == AllocatorKind::Subheap ? "runtime.ifp_mallocs_subheap"
                                      : "runtime.ifp_mallocs_wrapped"] +=
        mallocs;
    c["oracle.checks"] += out.oracleChecks;
    c["oracle.abstained"] += out.oracleAbstained;
}

// --- layer microbenchmarks ------------------------------------------

struct Micro
{
    double medianNs = 0;
    double iqrPct = 0;
};

volatile uint64_t microSink;

/**
 * Time @p body (which performs and returns a number of operations) in
 * nine repeats, each scaled to reference speed by a calibration kernel
 * run just before it; report reference-speed ns per operation.
 */
template <typename F>
Micro
micro(F &&body)
{
    std::vector<double> per_op;
    for (int rep = 0; rep < 9; ++rep) {
        double scale = referenceKernelSeconds / calibrationKernel();
        double t0 = threadCpu();
        uint64_t ops = body();
        per_op.push_back((threadCpu() - t0) * scale * 1e9 /
                         static_cast<double>(ops));
    }
    return {median(per_op), iqrPct(per_op)};
}

/** A built, instrumented module with an unrun Machine over it. */
struct Prepared
{
    ir::Module module;
    InstrumentResult inst;
    std::unique_ptr<Machine> machine;

    Prepared(const workloads::Workload &w, AllocatorKind alloc)
    {
        w.build(module);
        inst = instrumentModule(module);
        VmConfig config;
        config.instrumented = true;
        config.allocator = alloc;
        machine = std::make_unique<Machine>(module, &inst.layouts, config);
        installLibc(*machine);
    }
};

/** Reported metrics in output order: name -> (value, unit). */
using Metrics =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/** Report a microbenchmark's median and spread, and keep its ns. */
void
addMicro(Metrics &m, std::map<std::string, double> &ns,
         const std::string &name, const Micro &r)
{
    m.push_back({name, {r.medianNs, "ns"}});
    m.push_back({name + ".iqr_pct", {r.iqrPct, "%"}});
    ns[name] = r.medianNs;
}

/**
 * Microbenchmarks of single layers through their public functions.
 * Each check on the layer's own counters confirms the loop exercised
 * the case it is named after. Returns false if one did not.
 */
bool
layerMicrobenchmarks(Metrics &m,
                     std::map<std::string, double> &ns)
{
    bool ok = true;
    auto expect = [&ok](bool cond, const char *what) {
        if (!cond)
            std::fprintf(stderr, "perfbench: microbenchmark %s did not "
                         "exercise its case\n", what);
        ok &= cond;
    };
    constexpr uint64_t memOps = 1 << 20;

    // GuestMemory: loads/stores within one page hit the uTLB; eight
    // other pages 64 pages apart share another direct-mapped slot, so
    // cycling over them always misses.
    {
        GuestMemory mem;
        std::vector<GuestAddr> hit_addrs, miss_addrs;
        for (uint64_t i = 0; i < 512; ++i)
            hit_addrs.push_back(layout::heapBase + (i * 37 % 512) * 8);
        for (uint64_t i = 0; i < 8; ++i)
            miss_addrs.push_back(layout::heapBase +
                                 (1 + i * GuestMemory::utlbEntries) *
                                     GuestMemory::pageSize);
        for (GuestAddr a : hit_addrs)
            mem.store<uint64_t>(a, a);
        for (GuestAddr a : miss_addrs)
            mem.store<uint64_t>(a, a);
        auto loads = [&](const std::vector<GuestAddr> &addrs) {
            uint64_t sum = 0;
            size_t mask = addrs.size() - 1;
            for (uint64_t i = 0; i < memOps; ++i)
                sum += mem.load<uint64_t>(addrs[i & mask]);
            microSink = sum;
            return memOps;
        };
        auto stores = [&](const std::vector<GuestAddr> &addrs) {
            size_t mask = addrs.size() - 1;
            for (uint64_t i = 0; i < memOps; ++i)
                mem.store<uint64_t>(addrs[i & mask], i);
            return memOps;
        };
        loads(hit_addrs);
        uint64_t h0 = *mem.utlbHitsForJit();
        Micro load_hit = micro([&] { return loads(hit_addrs); });
        uint64_t h1 = *mem.utlbHitsForJit();
        Micro load_miss = micro([&] { return loads(miss_addrs); });
        uint64_t h2 = *mem.utlbHitsForJit();
        Micro store_hit = micro([&] { return stores(hit_addrs); });
        expect(h1 - h0 == 9 * memOps && h2 == h1, "mem");
        addMicro(m, ns, "mem.load_hit_ns", load_hit);
        addMicro(m, ns, "mem.load_miss_ns", load_miss);
        addMicro(m, ns, "mem.store_hit_ns", store_hit);
    }

    // Cache: four lines re-read always hit; a cyclic walk over twice
    // the capacity always misses under LRU.
    {
        Cache cache("perfbench", CacheConfig{});
        CacheConfig cfg;
        uint64_t lines = 2 * cfg.sizeBytes / cfg.lineBytes;
        auto walk = [&](uint64_t span_lines) {
            for (uint64_t i = 0; i < memOps; ++i)
                cache.access(layout::heapBase +
                                 (i % span_lines) * cfg.lineBytes,
                             8, false);
            return memOps;
        };
        walk(4);
        uint64_t m0 = cache.misses();
        Micro hit = micro([&] { return walk(4); });
        uint64_t m1 = cache.misses();
        walk(lines);
        uint64_t h2 = cache.hits();
        Micro miss = micro([&] { return walk(lines); });
        expect(m1 == m0 && cache.hits() == h2, "cache");
        addMicro(m, ns, "cache.access_hit_ns", hit);
        addMicro(m, ns, "cache.access_miss_ns", miss);
    }

    const workloads::Workload &treeadd = *workloads::byName("treeadd");

    // PromoteEngine: one pointer per metadata scheme, promoted over and
    // over (each promote re-fetches its metadata through the L1D).
    {
        Prepared p(treeadd, AllocatorKind::Subheap);
        Runtime &rt = p.machine->runtime();
        RuntimeCost cost;
        TaggedPtr local =
            rt.registerObject(layout::stackLimit + 0x1000, 32,
                              ir::noLayout, cost)
                .ptr;
        TaggedPtr global =
            rt.registerObject(layout::globalBase + 0x100000,
                              IfpConfig::localMaxObjectBytes + 4096,
                              ir::noLayout, cost)
                .ptr;
        TaggedPtr subheap = rt.ifpMalloc(48, ir::noLayout, cost).ptr;
        TaggedPtr legacy = TaggedPtr::legacy(layout::heapBase + 64);
        PromoteEngine &engine = p.machine->promoteEngine();
        constexpr uint64_t promoteOps = 1 << 17;
        struct Case
        {
            const char *name;
            TaggedPtr ptr;
            Scheme scheme;
            PromoteResult::Outcome outcome;
        };
        const Case cases[] = {
            {"promote.local_ns", local, Scheme::LocalOffset,
             PromoteResult::Outcome::Retrieved},
            {"promote.subheap_ns", subheap, Scheme::Subheap,
             PromoteResult::Outcome::Retrieved},
            {"promote.global_ns", global, Scheme::GlobalTable,
             PromoteResult::Outcome::Retrieved},
            {"promote.legacy_ns", legacy, Scheme::Legacy,
             PromoteResult::Outcome::BypassLegacy},
        };
        for (const Case &c : cases) {
            PromoteResult first = engine.promote(c.ptr);
            expect(c.ptr.scheme() == c.scheme && first.outcome == c.outcome,
                   c.name);
            Micro r = micro([&] {
                uint64_t sum = 0;
                for (uint64_t i = 0; i < promoteOps; ++i)
                    sum += engine.promote(c.ptr).cycles;
                microSink = sum;
                return promoteOps;
            });
            addMicro(m, ns, c.name, r);
        }
    }

    // Runtime: instrumented malloc + free of one 48-byte object.
    for (AllocatorKind alloc :
         {AllocatorKind::Subheap, AllocatorKind::Wrapped}) {
        Prepared p(treeadd, alloc);
        Runtime &rt = p.machine->runtime();
        constexpr uint64_t allocOps = 1 << 14;
        Micro r = micro([&] {
            for (uint64_t i = 0; i < allocOps; ++i) {
                RuntimeCost cost;
                IfpAllocation a = rt.ifpMalloc(48, ir::noLayout, cost);
                rt.ifpFree(a.ptr, cost);
            }
            return allocOps;
        });
        std::string name = alloc == AllocatorKind::Subheap
                               ? "runtime.subheap_malloc_free_ns"
                               : "runtime.wrapped_malloc_free_ns";
        addMicro(m, ns, name, r);
    }

    // Superblock predecode and JIT block compilation over every
    // function of the 18 instrumented (subheap) modules. Predecode
    // folds globals to their untagged addresses: the tagged values the
    // machine uses are private to it, and folding cost does not depend
    // on the value.
    {
        std::vector<std::unique_ptr<Prepared>> mods;
        std::vector<std::vector<uint64_t>> globals;
        for (const workloads::Workload &w : workloads::all()) {
            mods.push_back(
                std::make_unique<Prepared>(w, AllocatorKind::Subheap));
            std::vector<uint64_t> g;
            for (size_t i = 0; i < mods.back()->module.numGlobals(); ++i)
                g.push_back(mods.back()->machine->globalAddr(
                    static_cast<ir::GlobalId>(i)));
            globals.push_back(std::move(g));
        }
        StatGroup sb_group("perfbench.sb");
        sb::Stats sb_stats(sb_group);
        std::vector<std::vector<sb::FunctionCode>> code(mods.size());
        uint64_t funcs = 0;
        Micro pre = micro([&] {
            funcs = 0;
            for (size_t i = 0; i < mods.size(); ++i) {
                sb::PredecodeOptions opts;
                opts.instrumented = true;
                opts.nullGuard = GuestMemory::pageSize;
                opts.globalPtrRaw = &globals[i];
                opts.module = &mods[i]->module;
                code[i].clear();
                for (size_t f = 0; f < mods[i]->module.numFunctions(); ++f) {
                    const ir::Function &fn = *mods[i]->module.function(
                        static_cast<ir::FuncId>(f));
                    if (fn.isNative())
                        continue;
                    code[i].push_back(sb::predecode(fn, opts, sb_stats));
                    ++funcs;
                }
            }
            return funcs;
        });
        m.push_back({"sb.predecode_us_per_func",
                     {pre.medianNs / 1e3, "us"}});
        m.push_back({"sb.predecode_us_per_func.iqr_pct",
                     {pre.iqrPct, "%"}});

        if (jit::available()) {
            uint64_t cells[32] = {};
            uint64_t blocks = 0;
            Micro comp = micro([&] {
                blocks = 0;
                for (size_t i = 0; i < mods.size(); ++i) {
                    Machine &machine = *mods[i]->machine;
                    TierController tier;
                    tier.configure(true, true, 16);
                    jit::MachineBinding bind;
                    uint64_t **slots[] = {
                        &bind.instrs,    &bind.cycles,   &bind.classBase,
                        &bind.classMem,  &bind.classIfp, &bind.cLoads,
                        &bind.cStores,   &bind.cImplicitChecks,
                        &bind.cIfpArith, &bind.tierBlocksRun,
                        &bind.tierInlineRets, &bind.classBndLdSt,
                        &bind.cBndLdSt,  &bind.classPromote, &bind.sp,
                    };
                    for (size_t s = 0; s < std::size(slots); ++s)
                        *slots[s] = &cells[s];
                    bind.mem = &machine.mem();
                    bind.l1d = &machine.l1d();
                    bind.machine = &machine;
                    tier.bind(bind);
                    for (const sb::FunctionCode &fc : code[i]) {
                        for (uint32_t b = 0; b < fc.blocks.size(); ++b) {
                            tier.compile(fc, b);
                            ++blocks;
                        }
                        std::fill(fc.jitEntries.begin(),
                                  fc.jitEntries.end(), nullptr);
                    }
                    tier.invalidateAll();
                }
                return blocks;
            });
            m.push_back({"tier.compile_us_per_block",
                         {comp.medianNs / 1e3, "us"}});
            m.push_back({"tier.compile_us_per_block.iqr_pct",
                         {comp.iqrPct, "%"}});
        } else {
            std::fprintf(stderr,
                         "perfbench: tier.compile_us_per_block "
                         "unavailable: %s\n",
                         jit::unavailableReason());
        }
    }
    return ok;
}

// --- the run ----------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string reference;
    std::string traceOut;
};

std::vector<Job>
jobsFor(const std::string &workload)
{
    std::vector<Job> jobs;
    if (workload == "matrix-jit" || workload == "matrix-profiled") {
        for (const workloads::Workload &w : workloads::all()) {
            for (Config c : matrixConfigs) {
                Job job;
                job.workload = &w;
                job.config = c;
                jobs.push_back(job);
            }
        }
    } else if (workload == "juliet") {
        for (const juliet::TestCase &tc : juliet::generateSuite()) {
            for (AllocatorKind a :
                 {AllocatorKind::Subheap, AllocatorKind::Wrapped}) {
                for (bool oracle : {false, true}) {
                    Job job;
                    job.testCase = tc;
                    job.allocator = a;
                    job.oracle = oracle;
                    jobs.push_back(job);
                }
            }
        }
    }
    return jobs;
}

/**
 * Peak resident set of this process image (VmHWM). getrusage's
 * ru_maxrss would do, except that it survives execve and so reports the
 * launcher's peak when that is larger.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024;
    }
    rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024;
}

double
liveHeapMb()
{
    struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd) / (1 << 20);
}

/** Every timed sample of every job in a run. */
struct JobSamples
{
    std::vector<std::vector<Sample>> samples;

    explicit JobSamples(size_t jobs) : samples(jobs) {}

    /**
     * Per job, the median sample under @p value (the lower middle one
     * for an even count), for every job that has samples.
     */
    template <typename F>
    std::vector<const Sample *>
    medians(F &&value) const
    {
        std::vector<const Sample *> picks;
        for (const std::vector<Sample> &v : samples) {
            if (v.empty())
                continue;
            std::vector<const Sample *> sorted;
            for (const Sample &s : v)
                sorted.push_back(&s);
            std::sort(sorted.begin(), sorted.end(),
                      [&](const Sample *x, const Sample *y) {
                          return value(*x) < value(*y);
                      });
            picks.push_back(sorted[(sorted.size() - 1) / 2]);
        }
        return picks;
    }

    /** Sum over jobs of the median reference-speed @p seconds. */
    template <typename F>
    double
    estimate(F &&seconds) const
    {
        auto scaled = [&](const Sample &s) { return seconds(s) * s.scale; };
        double sum = 0;
        for (const Sample *s : medians(scaled))
            sum += scaled(*s);
        return sum;
    }

    /**
     * One representative pass in reference-speed seconds: each job's
     * median sample by total, summed per phase and in total, so the
     * phases add up to the total exactly.
     */
    Sample
    pass() const
    {
        Sample sum;
        for (const Sample *s :
             medians([](const Sample &x) { return x.total * x.scale; })) {
            for (unsigned p = 0; p < NumPhases; ++p)
                sum.phase[p] += s->phase[p] * s->scale;
            sum.total += s->total * s->scale;
        }
        return sum;
    }
};

/** What a run accumulates over its passes. */
struct Tally
{
    JobSamples plain;
    JobSamples traced;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Raw CPU seconds of every calibration kernel run. */
    std::vector<double> kernels;
    /** Counts of the first pass; every later pass must repeat them. */
    std::optional<Counts> counts;
    bool deterministic = true;

    explicit Tally(size_t jobs) : plain(jobs), traced(jobs) {}
};

/**
 * Run every job once in @p order, recording into @p tally. In a timed
 * pass the calibration kernel runs after every kernelInterval of job
 * CPU time (and at the end), and the samples since the previous kernel
 * run are scaled by reference speed ÷ the speed it measured.
 */
void
runPass(const std::vector<Job> &jobs, const std::vector<size_t> &order,
        bool profiled, const Reference &ref, SpanLog *spans, bool timed,
        Tally &tally)
{
    JobSamples &into = spans ? tally.traced : tally.plain;
    std::vector<std::pair<size_t, Sample>> pending;
    double since_kernel = 0;
    auto calibrate = [&] {
        double kernel = calibrationKernel();
        tally.kernels.push_back(kernel);
        for (auto &[j, sample] : pending) {
            sample.scale = referenceKernelSeconds / kernel;
            into.samples[j].push_back(sample);
        }
        pending.clear();
        since_kernel = 0;
    };

    int64_t pass_span = spans ? spans->open("pass", 0, -1) : -1;
    Counts counts;
    for (size_t j : order) {
        Sample sample;
        uint32_t id = static_cast<uint32_t>(j);
        int64_t job_span = spans ? spans->open("job", id, pass_span) : -1;
        double t0 = threadCpu();
        Outcome out = runJob(jobs[j], profiled, sample, spans, job_span, id);
        sample.total = threadCpu() - t0;
        if (spans)
            spans->close(job_span);
        ++tally.attempted;
        if (!verified(jobs[j], out, ref)) {
            ++tally.failed;
            std::fprintf(stderr, "perfbench: job %s not verified\n",
                         jobs[j].name().c_str());
        }
        addCounts(counts, jobs[j], out);
        if (timed) {
            pending.push_back({j, sample});
            since_kernel += sample.total;
            if (since_kernel >= kernelInterval)
                calibrate();
        }
    }
    if (!pending.empty())
        calibrate();
    if (spans)
        spans->close(pass_span);
    if (!tally.counts)
        tally.counts = counts;
    else if (*tally.counts != counts)
        tally.deterministic = false;
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const Metrics &metrics)
{
    for (const auto &[name, vu] : metrics)
        std::printf("%-40s %16.6f %s\n", name.c_str(), vu.first,
                    vu.second.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].first.c_str(),
                    metrics[i].second.first,
                    metrics[i].second.second.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

int
runBenchmark(const Options &opt)
{
    std::vector<Job> jobs = jobsFor(opt.workload);
    fatal_if(jobs.empty(), "unknown workload '%s' (matrix-jit, "
             "matrix-profiled, juliet)", opt.workload.c_str());
    bool profiled = opt.workload == "matrix-profiled";
    constexpr unsigned minPasses = 3;
    // Bounds the trace file (~80 bytes a span) and its re-read.
    constexpr size_t maxSpans = 60000;
    Reference ref;
    if (jobs.front().matrix()) {
        ref = readReference(opt.reference);
        fatal_if(ref.size() != jobs.size(),
                 "reference %s has %zu entries, expected %zu",
                 opt.reference.c_str(), ref.size(), jobs.size());
    }

    Tally tally(jobs.size());
    std::vector<size_t> order(jobs.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::mt19937_64 rng(opt.seed);
    SpanLog spans;
    double heap_retained_mb = 0, rss_mb = 0;

    double start = wallNow();
    double last_pass = 0;
    for (unsigned pass = 0;
         pass < minPasses || wallNow() - start + last_pass <= opt.seconds;
         ++pass) {
        double pass_start = wallNow();
        // The first pass keeps registry order, so the peak resident set
        // measured after it does not depend on the seed.
        if (pass > 0)
            std::shuffle(order.begin(), order.end(), rng);
        // A traced run alternates traced and untraced passes, so both
        // see the same host conditions, until the span log is full.
        bool tracing = opt.trace && pass % 2 == 1 &&
                       spans.size() < maxSpans;
        double heap_before = liveHeapMb();
        // The first pass warms up and is verified but not timed.
        runPass(jobs, order, profiled, ref, tracing ? &spans : nullptr,
                pass > 0, tally);
        // Taken after the first pass, so neither depends on how many
        // passes the host's speed allowed.
        if (pass == 0) {
            heap_retained_mb = liveHeapMb() - heap_before;
            rss_mb = peakRssMb();
        }
        last_pass = wallNow() - pass_start;
    }
    uint64_t attempted = tally.attempted, failed = tally.failed;
    bool deterministic = tally.deterministic;

    // Self-check on seeded picks, outside the timed passes.
    bool self_ok = true;
    std::vector<size_t> picks = order;
    picks.resize(std::min<size_t>(picks.size(),
                                  jobs.front().matrix() ? 3 : 24));
    for (size_t j : picks) {
        Sample scratch;
        Outcome out = runJob(jobs[j], profiled, scratch, nullptr, -1, 0);
        if (!selfCheck(jobs[j], profiled, out)) {
            self_ok = false;
            std::fprintf(stderr,
                         "perfbench: self-check failed for %s\n",
                         jobs[j].name().c_str());
        }
    }

    const Counts &c = *tally.counts;
    auto count = [&](const char *name) {
        auto it = c.find(name);
        return it == c.end() ? 0.0 : static_cast<double>(it->second);
    };
    auto pct = [](double num, double den) {
        return den == 0 ? 0.0 : 100 * num / den;
    };

    // Engine-path gates: the JIT must run on matrix-jit and must not on
    // matrix-profiled; the oracle must check accesses on juliet.
    bool gates = true;
    if (opt.workload == "matrix-jit")
        gates = count("tier.jit_block_entries") > 0;
    else if (opt.workload == "matrix-profiled")
        gates = count("tier.jit_block_entries") == 0;
    else
        gates = count("oracle.checks") > 0;
    if (!gates)
        std::fprintf(stderr, "perfbench: engine-path gate failed\n");
    if (!deterministic)
        std::fprintf(stderr, "perfbench: counts differ between passes\n");

    Metrics metrics;
    // Each end-to-end time is a sum of per-job medians of its own, so a
    // noisy phase choosing a job's sample does not move a quiet one.
    double pass_s = tally.plain.estimate(
        [](const Sample &s) { return s.total; });
    if (!opt.trace) {
        double exec_s = tally.plain.estimate([](const Sample &s) {
            return s.phase[Exec] + s.phase[OracleExec];
        });
        double setup_s = tally.plain.estimate([](const Sample &s) {
            double sum = 0;
            for (unsigned p = 0; p < NumPhases; ++p)
                sum += isSetup(p) ? s.phase[p] : 0;
            return sum;
        });
        metrics.push_back({"pass_s", {pass_s, "s"}});
        metrics.push_back(
            {"sim_mips", {count("vm.instructions") / exec_s / 1e6,
                          "Minstr/s"}});
        metrics.push_back({"setup_s", {setup_s, "s"}});
        metrics.push_back({"host_rss_mb", {rss_mb, "MiB"}});
        metrics.push_back(
            {"sim_cpi", {count("vm.cycles") / count("vm.instructions"),
                         "cycles/instr"}});
        metrics.push_back(
            {"verified_pct",
             {pct(static_cast<double>(attempted - failed),
                  static_cast<double>(attempted)),
              "%"}});
    } else {
        Sample tr = tally.traced.pass();
        double phase_sum = 0;
        for (unsigned p = 0; p < NumPhases; ++p) {
            metrics.push_back({std::string("phase.") + phaseNames[p] + "_ms",
                               {tr.phase[p] * 1e3, "ms"}});
            phase_sum += tr.phase[p];
        }
        metrics.push_back({"phase.unattributed_ms",
                           {(tr.total - phase_sum) * 1e3, "ms"}});
        metrics.push_back({"phase.pass_ms", {tr.total * 1e3, "ms"}});
        metrics.push_back({"trace.overhead_pct",
                           {pct(tr.total - pass_s, pass_s), "%"}});
        for (const char *n :
             {"compiler.promotes_inserted", "vm.instructions", "vm.calls",
              "sb.functions", "sb.records", "sb.fused_exec",
              "sb.checks_full", "sb.checks_elided", "tier.jit_promotions",
              "tier.jit_block_entries", "tier.jit_bailouts",
              "tier.call_inlined", "tier.jit_code_bytes",
              "mem.pages_mapped", "promote.promotes",
              "promote.meta_fetches", "runtime.ifp_mallocs",
              "oracle.checks"})
            metrics.push_back({n, {count(n), "count"}});
        metrics.push_back(
            {"sb.checks_elided_pct",
             {pct(count("sb.checks_elided"),
                  count("sb.checks_elided") + count("sb.checks_full")),
              "%"}});
        metrics.push_back(
            {"mem.utlb_hit_pct",
             {pct(count("mem.utlb_hits"),
                  count("mem.utlb_hits") + count("mem.utlb_misses")),
              "%"}});
        metrics.push_back(
            {"l1d.accesses", {count("l1d.hits") + count("l1d.misses"),
                              "count"}});
        metrics.push_back(
            {"l1d.miss_pct",
             {pct(count("l1d.misses"),
                  count("l1d.hits") + count("l1d.misses")),
              "%"}});
        metrics.push_back({"promote.valid_pct",
                           {pct(count("promote.valid_promotes"),
                                count("promote.promotes")),
                            "%"}});
        metrics.push_back({"oracle.abstained_pct",
                           {pct(count("oracle.abstained"),
                                count("oracle.checks")),
                            "%"}});
        metrics.push_back(
            {"host.heap_retained_mb", {heap_retained_mb, "MiB"}});
        // Unscaled figures, so a reader can see the host's speed.
        double raw_pass_s = 0;
        for (const Sample *s :
             tally.plain.medians([](const Sample &x) { return x.total; }))
            raw_pass_s += s->total;
        metrics.push_back({"host.raw_pass_s", {raw_pass_s, "s"}});
        metrics.push_back(
            {"host.kernel_ms", {median(tally.kernels) * 1e3, "ms"}});

        std::map<std::string, double> ns;
        gates &= layerMicrobenchmarks(metrics, ns);

        // Estimated shares of execution time: exact count x the
        // layer's microbenchmark time per operation.
        double exec_ns = (tr.phase[Exec] + tr.phase[OracleExec]) * 1e9;
        auto share = [&](double ns_total) { return pct(ns_total, exec_ns); };
        metrics.push_back(
            {"est.mem_share_pct",
             {share(count("mem.utlb_hits") * ns["mem.load_hit_ns"] +
                    count("mem.utlb_misses") * ns["mem.load_miss_ns"]),
              "%"}});
        metrics.push_back(
            {"est.cache_share_pct",
             {share(count("l1d.hits") * ns["cache.access_hit_ns"] +
                    count("l1d.misses") * ns["cache.access_miss_ns"]),
              "%"}});
        metrics.push_back(
            {"est.promote_share_pct",
             {share(count("promote.scheme_local") *
                        ns["promote.local_ns"] +
                    count("promote.scheme_subheap") *
                        ns["promote.subheap_ns"] +
                    count("promote.scheme_global") *
                        ns["promote.global_ns"] +
                    (count("promote.bypass_legacy") +
                     count("promote.bypass_null")) *
                        ns["promote.legacy_ns"]),
              "%"}});
        metrics.push_back(
            {"est.runtime_share_pct",
             {share(count("runtime.ifp_mallocs_subheap") *
                        ns["runtime.subheap_malloc_free_ns"] +
                    count("runtime.ifp_mallocs_wrapped") *
                        ns["runtime.wrapped_malloc_free_ns"]),
              "%"}});

        if (!opt.traceOut.empty()) {
            spans.write(opt.traceOut);
            if (!traceWellFormed(opt.traceOut, spans.size())) {
                std::fprintf(stderr, "perfbench: trace %s malformed\n",
                             opt.traceOut.c_str());
                gates = false;
            }
        }
    }

    bool correct = failed == 0 && self_ok && gates && deterministic;
    printResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --reference FILE [--trace-out FILE]\n"
                 "       perfbench --write-reference FILE\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i], value = argv[i + 1];
        if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--seed")
            opt.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            opt.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            opt.trace = value == "1";
        else if (flag == "--reference")
            opt.reference = value;
        else if (flag == "--trace-out")
            opt.traceOut = value;
        else if (flag == "--write-reference")
            return writeReference(value);
        else
            return usage();
    }
    if (argc % 2 == 0 || opt.workload.empty())
        return usage();
    return runBenchmark(opt);
}
