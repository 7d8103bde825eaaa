/**
 * @file
 * Classical-control companion application: vision-aided nonlinear MPC.
 *
 * The paper's future-directions section (Section 6) singles out
 * "classical algorithms such as SLAM and nonlinear MPC [that] build
 * upon iterative optimization algorithms ... with data-dependent
 * runtime behaviors and access patterns, where RoSÉ can capture their
 * performance implications on both hardware and software." This
 * workload realizes that: each control iteration
 *
 *   1. acquires a camera frame through the bridge and recovers the
 *      corridor-relative pose (the visual front end, charged to the
 *      CPU at the SoC's scalar throughput);
 *   2. solves a finite-horizon optimal-control problem by iterative
 *      gradient descent on the yaw-rate sequence — the iteration count
 *      depends on the current tracking error, so the per-loop compute
 *      time is *data-dependent*;
 *   3. sends the first optimized control as a VelocityCmd.
 *
 * Unlike the DNN pipeline, there is no accelerator work: this is the
 * kind of irregular CPU-bound loop a robotics SoC must also serve.
 */

#ifndef ROSE_RUNTIME_MPC_APP_HH
#define ROSE_RUNTIME_MPC_APP_HH

#include <vector>

#include "bridge/target_driver.hh"
#include "dnn/classifier.hh"
#include "soc/config.hh"
#include "soc/workload.hh"

namespace rose::runtime {

/** MPC problem definition and solver controls. */
struct MpcConfig
{
    /** Mission forward velocity [m/s]. */
    double forwardVelocity = 3.0;
    /** Horizon length [steps]. */
    int horizon = 20;
    /** Horizon step [s]. */
    double dt = 0.05;
    /** State costs: lateral offset and heading. */
    double qOffset = 1.0;
    double qHeading = 0.6;
    /** Control effort cost. */
    double rControl = 0.08;
    /** Yaw-rate bound [rad/s]. */
    double maxYawRate = 1.4;
    /** Gradient step size. */
    double stepSize = 2.0;
    /** Convergence: stop when the relative cost improvement drops
     *  below this (the data-dependent part). */
    double tolerance = 2e-3;
    int maxIterations = 60;

    /** Modeled CPU cost of one gradient iteration [FLOPs]. */
    double flopsPerIteration = 4000.0;
    /** Modeled CPU cost of the visual pose front end [FLOPs]. */
    double frontEndFlops = 300'000.0;

    dnn::EstimatorConfig estimator;
    /** One-time startup cost [cycles]. */
    Cycles bootCycles = 20 * kMegaCycles;
};

/** Telemetry of one MPC control iteration. */
struct MpcRecord
{
    Cycles requestCycle = 0;
    Cycles commandCycle = 0;
    int solverIterations = 0;
    double cost = 0.0;
    double offsetEstimate = 0.0;
    double headingEstimate = 0.0;
    bridge::VelocityCmdPayload command;

    Cycles requestToCommand() const
    { return commandCycle - requestCycle; }
};

/**
 * Standalone MPC solve (exposed for tests and benches).
 *
 * @param offset current lateral offset estimate [m].
 * @param heading current heading error estimate [rad].
 * @param cfg problem definition.
 * @param iterations_out gradient iterations performed.
 * @return optimized yaw-rate sequence (horizon entries).
 */
std::vector<double> solveMpc(double offset, double heading,
                             const MpcConfig &cfg, int &iterations_out,
                             double *final_cost = nullptr);

/** The workload. */
class MpcApp : public soc::Workload
{
  public:
    MpcApp(bridge::TargetDriver &driver, const soc::SocConfig &soc,
           const MpcConfig &cfg);

    std::string workloadName() const override { return "mpc-nav"; }
    soc::Action next(const soc::SocContext &ctx) override;

    const std::vector<MpcRecord> &records() const { return records_; }
    uint64_t solveCount() const { return records_.size(); }

  private:
    enum class State
    {
        Boot,
        SendRequest,
        AwaitResponse,
        ReadAndSolve,
        SendCommand,
    };

    soc::Action ioAction(const char *label);

    bridge::TargetDriver &driver_;
    soc::SocConfig soc_;
    MpcConfig cfg_;

    State state_ = State::Boot;
    /** Last decoded camera frame (buffer reused across requests). */
    env::Image image_;
    /** Pose-estimator template bank and buffers, built on the first
     *  frame and reused by every later one. */
    dnn::PoseScratch poseScratch_;
    bool haveImage_ = false;
    MpcRecord current_;
    Cycles solveCycles_ = 0;
    std::vector<MpcRecord> records_;
};

} // namespace rose::runtime

#endif // ROSE_RUNTIME_MPC_APP_HH
