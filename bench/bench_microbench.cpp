/**
 * @file
 * google-benchmark microbenchmarks of the simulator substrates: packet
 * codec throughput, corridor raycasting, camera rendering, classifier
 * inference, Gemmini tiling-model evaluation, RV32IM simulation rate,
 * and full co-simulation periods. These quantify the infrastructure
 * itself (the paper's Figure 15 concern: what limits simulator
 * throughput) rather than the modeled UAV.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "bridge/packet.hh"
#include "core/cosim.hh"
#include "dnn/classifier.hh"
#include "dnn/engine.hh"
#include "dnn/forward.hh"
#include "env/sensors.hh"
#include "env/world.hh"
#include "gemmini/gemmini.hh"
#include "rv/assembler.hh"
#include "rv/core.hh"
#include "rv/timing.hh"
#include "util/rng.hh"

using namespace rose;

// --------------------------------------------------------------------
// Process-wide allocation counter, used by the hot-path report to count
// the heap allocations of a steady-state mission frame (same technique
// as tests/test_hotpath.cc).

static std::atomic<uint64_t> g_allocCount{0};

void *
operator new(size_t n)
{
    ++g_allocCount;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](size_t n)
{
    return ::operator new(n);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, size_t) noexcept { std::free(p); }
void operator delete[](void *p, size_t) noexcept { std::free(p); }

static void
BM_PacketImageRoundTrip(benchmark::State &state)
{
    env::Image img(64, 48);
    for (size_t i = 0; i < img.pixels.size(); ++i)
        img.pixels[i] = float(i % 251) / 251.0f;
    env::Image out;
    for (auto _ : state) {
        bridge::Packet p = bridge::encodeImageResp(img);
        bridge::decodeImageRespInto(p, out);
        benchmark::DoNotOptimize(out.pixels.data());
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(img.byteSize()));
}
BENCHMARK(BM_PacketImageRoundTrip);

static void
BM_WireFraming(benchmark::State &state)
{
    bridge::Packet p = bridge::encodeVelocityCmd({1.0, 2.0, 3.0});
    std::vector<uint8_t> buf;
    for (auto _ : state) {
        buf.clear();
        bridge::serializePacket(p, buf);
        bridge::Packet out;
        bridge::deserializePacket(buf, out);
        benchmark::DoNotOptimize(out.payload.data());
    }
}
BENCHMARK(BM_WireFraming);

static void
BM_RaycastTunnel(benchmark::State &state)
{
    env::TunnelWorld w;
    double az = 0.3;
    for (auto _ : state) {
        env::RayHit hit = w.raycast({10, 0.4, 1.5}, az);
        benchmark::DoNotOptimize(hit.distance);
        az = -az;
    }
}
BENCHMARK(BM_RaycastTunnel);

static void
BM_CameraRender(benchmark::State &state)
{
    env::TunnelWorld w;
    env::Drone d;
    d.setPose({10, 0.3, 1.5}, Quat::fromEuler(0, 0, 0.1));
    env::Camera cam(env::CameraConfig{}, Rng(1));
    for (auto _ : state) {
        env::Image img = cam.render(w, d);
        benchmark::DoNotOptimize(img.pixels.data());
    }
}
BENCHMARK(BM_CameraRender);

static void
BM_ClassifierInference(benchmark::State &state)
{
    env::TunnelWorld w;
    env::Drone d;
    d.setPose({10, 0.3, 1.5}, Quat::fromEuler(0, 0, 0.1));
    env::Camera cam(env::CameraConfig{}, Rng(1));
    env::Image img = cam.render(w, d);
    dnn::Model m = dnn::makeResNet(14);
    dnn::Classifier cls(m, Rng(2));
    for (auto _ : state) {
        dnn::ClassifierOutput out = cls.infer(img);
        benchmark::DoNotOptimize(out.angular.probs);
    }
}
BENCHMARK(BM_ClassifierInference);

static void
BM_CameraRenderInto(benchmark::State &state)
{
    env::TunnelWorld w;
    env::Drone d;
    d.setPose({10, 0.3, 1.5}, Quat::fromEuler(0, 0, 0.1));
    env::Camera cam(env::CameraConfig{}, Rng(1));
    env::Image img;
    for (auto _ : state) {
        cam.renderInto(w, d.position(), d.attitude(), img);
        benchmark::DoNotOptimize(img.pixels.data());
    }
}
BENCHMARK(BM_CameraRenderInto);

static void
BM_PoseEstimateScratch(benchmark::State &state)
{
    env::TunnelWorld w;
    env::Drone d;
    d.setPose({10, 0.3, 1.5}, Quat::fromEuler(0, 0, 0.1));
    env::Camera cam(env::CameraConfig{}, Rng(1));
    env::Image img = cam.render(w, d);
    dnn::EstimatorConfig cfg;
    dnn::PoseScratch scratch;
    for (auto _ : state) {
        dnn::PoseEstimate est = dnn::estimatePose(img, cfg, scratch);
        benchmark::DoNotOptimize(est.headingRad);
    }
}
BENCHMARK(BM_PoseEstimateScratch);

static void
BM_Gemm(benchmark::State &state)
{
    const int m = int(state.range(0)), k = int(state.range(1)),
              n = int(state.range(2));
    gemmini::Gemmini g;
    Rng rng(3);
    std::vector<float> a(size_t(m) * k), b(size_t(k) * n),
        c(size_t(m) * n);
    for (float &v : a)
        v = float(rng.uniform(-1, 1));
    for (float &v : b)
        v = float(rng.uniform(-1, 1));
    for (auto _ : state) {
        g.matmul(m, k, n, a.data(), b.data(), c.data());
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 2 * m * k * n);
}
BENCHMARK(BM_Gemm)->Args({2500, 9, 8})->Args({625, 72, 16})
    ->Args({144, 144, 32});

static void
BM_Im2col(benchmark::State &state)
{
    dnn::Model m = dnn::makeResNet(14);
    const dnn::LayerSpec &spec = m.layers.front(); // stem conv
    dnn::Tensor in(1, dnn::kDnnInputH, dnn::kDnnInputW);
    Rng rng(5);
    for (float &v : in.data())
        v = float(rng.uniform(0, 1));
    int64_t bytes = 0;
    for (auto _ : state) {
        std::vector<float> out = dnn::im2col(spec, in);
        benchmark::DoNotOptimize(out.data());
        bytes = int64_t(out.size() * sizeof(float));
    }
    state.SetBytesProcessed(int64_t(state.iterations()) * bytes);
}
BENCHMARK(BM_Im2col);

static void
BM_GemminiTilingModel(benchmark::State &state)
{
    gemmini::Gemmini g;
    for (auto _ : state) {
        gemmini::GemmCost c = g.gemmCycles(2500, 288, 64);
        benchmark::DoNotOptimize(c.totalCycles);
    }
}
BENCHMARK(BM_GemminiTilingModel);

static void
BM_InferenceSchedule(benchmark::State &state)
{
    dnn::ExecutionEngine engine(soc::configA());
    dnn::Model m = dnn::makeResNet(int(state.range(0)));
    for (auto _ : state) {
        dnn::InferenceSchedule s = engine.schedule(m);
        benchmark::DoNotOptimize(s.totalCycles);
    }
}
BENCHMARK(BM_InferenceSchedule)->Arg(6)->Arg(34);

static void
BM_RvCoreSimRate(benchmark::State &state)
{
    rv::Program p = rv::assemble(R"(
        li a0, 100000
    loop:
        addi a1, a1, 3
        xori a2, a1, 5
        and a3, a2, a1
        addi a0, a0, -1
        bnez a0, loop
        ecall
    )");
    for (auto _ : state) {
        rv::Core core;
        core.loadProgram(p.words);
        uint64_t n = core.run();
        benchmark::DoNotOptimize(n);
        state.SetItemsProcessed(state.items_processed() + int64_t(n));
    }
}
BENCHMARK(BM_RvCoreSimRate);

static void
BM_RvTimedSimRate(benchmark::State &state)
{
    rv::Program p = rv::assemble(R"(
        li a0, 100000
    loop:
        addi a1, a1, 3
        xori a2, a1, 5
        and a3, a2, a1
        addi a0, a0, -1
        bnez a0, loop
        ecall
    )");
    for (auto _ : state) {
        rv::Core core;
        core.loadProgram(p.words);
        rv::BoomTiming tm;
        uint64_t n = 0;
        while (core.stopReason() == rv::StopReason::Running) {
            tm.retire(core.step());
            ++n;
        }
        benchmark::DoNotOptimize(tm.cycles());
        state.SetItemsProcessed(state.items_processed() + int64_t(n));
    }
}
BENCHMARK(BM_RvTimedSimRate);

static void
BM_CosimPeriod(benchmark::State &state)
{
    core::CosimConfig cfg;
    cfg.env.worldName = "tunnel";
    cfg.soc = soc::configA();
    cfg.sync.cyclesPerSync = Cycles(state.range(0)) * kMegaCycles;
    core::CoSimulation sim(cfg);
    for (auto _ : state)
        sim.stepPeriod();
    // Simulated cycles per wall second.
    state.counters["sim_MHz"] = benchmark::Counter(
        double(state.iterations()) * double(state.range(0)),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CosimPeriod)->Arg(10)->Arg(100);

// --------------------------------------------------------------------
// Hot-path perf report (--hotpath): times the work one mission frame
// executes — camera render, the bridge's image encode/decode, and pose
// estimation — on the allocating paths and on the cached, buffer-
// reusing paths missions run, plus each stage on its own; counts the
// heap allocations of a steady-state frame; emits BENCH_hotpath.json.
// With --baseline FILE it fails (exit 1) when any tracked latency
// regresses by more than 2x against the recorded values — the CI
// perf-smoke gate. --write-baseline FILE records the current machine's
// numbers.

namespace hotpath {

double
nowNs()
{
    return double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now()
                          .time_since_epoch())
                      .count());
}

/** Best-of-reps wall time of one call, in ns: best-of filters the
 *  interference of other load on shared machines. */
template <typename F>
double
timeKernel(F &&fn, double targetNs = 3e7, int reps = 5)
{
    fn(); // warm caches / first-touch
    double t0 = nowNs();
    fn();
    double once = std::max(nowNs() - t0, 50.0);
    int iters = std::max(1, int(targetNs / once));
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        double s = nowNs();
        for (int i = 0; i < iters; ++i)
            fn();
        best = std::min(best, (nowNs() - s) / iters);
    }
    return best;
}

std::map<std::string, double>
loadBaseline(const std::string &path)
{
    std::map<std::string, double> base;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream row(line);
        std::string key;
        double value = 0.0;
        if (row >> key >> value)
            base[key] = value;
    }
    return base;
}

int
run(const std::string &jsonPath, const std::string &baselinePath,
    const std::string &writeBaselinePath)
{
    // One mission frame: the synchronizer renders the camera image and
    // encodes it for the bridge; the control app decodes it and runs
    // the pose estimator behind Classifier::infer. Its DNN latency is
    // a memoized schedule lookup, so no forward pass runs here.
    env::TunnelWorld world;
    env::Drone drone;
    drone.setPose({10, 0.3, 1.5}, Quat::fromEuler(0, 0, 0.1));
    env::Camera cam(env::CameraConfig{}, Rng(1));
    dnn::EstimatorConfig ecfg;

    auto classicFrame = [&] {
        env::Image img =
            cam.render(world, drone.position(), drone.attitude());
        env::Image rx;
        bridge::decodeImageRespInto(bridge::encodeImageResp(img), rx);
        dnn::PoseEstimate est = dnn::estimatePose(rx, ecfg);
        benchmark::DoNotOptimize(est.headingRad);
    };
    env::Image img, rx;
    dnn::PoseScratch scratch;
    auto hotFrame = [&] {
        cam.renderInto(world, drone.position(), drone.attitude(), img);
        bridge::decodeImageRespInto(bridge::encodeImageResp(img), rx);
        dnn::PoseEstimate est = dnn::estimatePose(rx, ecfg, scratch);
        benchmark::DoNotOptimize(est.headingRad);
    };

    // Interleave the two variants rep by rep (best-of across reps):
    // frame-scale work on a shared machine drifts over seconds, and
    // back-to-back pairs cancel that drift out of the ratio.
    classicFrame();
    hotFrame();
    double classicNs = 1e300, hotNs = 1e300;
    for (int rep = 0; rep < 9; ++rep) {
        double s = nowNs();
        for (int i = 0; i < 20; ++i)
            classicFrame();
        classicNs = std::min(classicNs, (nowNs() - s) / 20);
        s = nowNs();
        for (int i = 0; i < 20; ++i)
            hotFrame();
        hotNs = std::min(hotNs, (nowNs() - s) / 20);
    }

    // Heap allocations of the steady-state frame: render, decode and
    // pose reuse their buffers; the encoded image packet is built
    // fresh every frame, as the synchronizer builds it.
    uint64_t allocsBefore = g_allocCount.load();
    for (int i = 0; i < 10; ++i)
        hotFrame();
    uint64_t allocsPerTenFrames = g_allocCount.load() - allocsBefore;

    std::printf("per-frame E2E (render + image codec + pose):\n"
                "  classic %8.0f ns/frame\n"
                "  hotpath %8.0f ns/frame  (%.2fx, %llu allocs per 10 "
                "steady frames)\n",
                classicNs, hotNs, classicNs / hotNs,
                (unsigned long long)allocsPerTenFrames);

    // Per-stage breakdown of the hot frame. Stages are timed in
    // isolation, so their sum can differ slightly from the E2E number
    // above.
    double renderNs = timeKernel([&] {
        cam.renderInto(world, drone.position(), drone.attitude(), img);
    });
    double decodeNs = timeKernel([&] {
        bridge::decodeImageRespInto(bridge::encodeImageResp(img), rx);
        benchmark::DoNotOptimize(rx.pixels.data());
    });
    double poseNs = timeKernel([&] {
        dnn::PoseEstimate est = dnn::estimatePose(rx, ecfg, scratch);
        benchmark::DoNotOptimize(est.headingRad);
    });

    std::printf("\nhot-frame stage breakdown:\n"
                "  render  %8.0f ns\n"
                "  decode  %8.0f ns (image encode + decode)\n"
                "  pose    %8.0f ns\n",
                renderNs, decodeNs, poseNs);

    // ---- JSON report ----
    if (!jsonPath.empty()) {
        std::ofstream js(jsonPath);
        js << "{\n  \"report\": \"hotpath\",\n";
        js << "  \"frame_classic_ns\": " << classicNs << ",\n";
        js << "  \"frame_hotpath_ns\": " << hotNs << ",\n";
        js << "  \"frame_speedup\": " << classicNs / hotNs << ",\n";
        js << "  \"frame_stages\": {\n";
        js << "    \"render_ns\": " << renderNs << ",\n";
        js << "    \"decode_ns\": " << decodeNs << ",\n";
        js << "    \"pose_ns\": " << poseNs << "\n  },\n";
        js << "  \"steady_allocs_per_10_frames\": "
           << allocsPerTenFrames << "\n}\n";
        std::printf("wrote %s\n", jsonPath.c_str());
    }

    // ---- baseline bookkeeping ----
    std::map<std::string, double> current;
    current["frame_hotpath_ns"] = hotNs;
    current["frame_render_ns"] = renderNs;
    current["frame_pose_ns"] = poseNs;
    current["frame_decode_ns"] = decodeNs;

    if (!writeBaselinePath.empty()) {
        std::ofstream out(writeBaselinePath);
        out << "# hot-path perf baseline: <metric> <ns>. Regenerate "
               "with\n# bench_microbench --hotpath --write-baseline "
               "<file>.\n";
        for (const auto &kv : current)
            out << kv.first << " " << kv.second << "\n";
        std::printf("wrote baseline %s\n", writeBaselinePath.c_str());
    }

    int failures = 0;
    if (!baselinePath.empty()) {
        std::map<std::string, double> base = loadBaseline(baselinePath);
        for (const auto &kv : base) {
            auto it = current.find(kv.first);
            if (it == current.end())
                continue; // metric no longer produced: not a regression
            if (it->second > 2.0 * kv.second) {
                std::printf("PERF REGRESSION: %s = %.0f ns, baseline "
                            "%.0f ns (>2x)\n",
                            kv.first.c_str(), it->second, kv.second);
                ++failures;
            }
        }
        if (!failures)
            std::printf("perf-smoke: all %zu tracked metrics within "
                        "2x of baseline\n",
                        base.size());
    }
    return failures ? 1 : 0;
}

} // namespace hotpath

int
main(int argc, char **argv)
{
    // The hot-path report has its own flags; strip them before (or
    // instead of) handing control to google-benchmark.
    bool doHotpath = false;
    std::string jsonPath = "BENCH_hotpath.json";
    std::string baselinePath, writeBaselinePath;
    std::vector<char *> passthrough{argv[0]};
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> bool {
            size_t n = std::strlen(flag);
            if (arg.compare(0, n, flag) == 0 && arg[n] == '=')
                return true;
            return false;
        };
        if (arg == "--hotpath") {
            doHotpath = true;
        } else if (value("--hotpath")) {
            doHotpath = true;
            jsonPath = arg.substr(std::strlen("--hotpath") + 1);
        } else if (value("--baseline")) {
            doHotpath = true;
            baselinePath = arg.substr(std::strlen("--baseline") + 1);
        } else if (value("--write-baseline")) {
            doHotpath = true;
            writeBaselinePath =
                arg.substr(std::strlen("--write-baseline") + 1);
        } else {
            passthrough.push_back(argv[i]);
        }
    }
    if (doHotpath)
        return hotpath::run(jsonPath, baselinePath, writeBaselinePath);

    int pargc = int(passthrough.size());
    benchmark::Initialize(&pargc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(pargc,
                                               passthrough.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
