#include "mpc_app.hh"

#include <cmath>

#include "util/logging.hh"

namespace rose::runtime {

std::vector<double>
solveMpc(double offset, double heading, const MpcConfig &cfg,
         int &iterations_out, double *final_cost)
{
    const int h = cfg.horizon;
    rose_assert(h > 0, "MPC horizon must be positive");
    std::vector<double> u(size_t(h), 0.0);
    std::vector<double> y(size_t(h) + 1), psi(size_t(h) + 1);
    std::vector<double> grad(size_t(h), 0.0);

    double v = cfg.forwardVelocity;
    double dt = cfg.dt;

    auto rollout = [&]() {
        y[0] = offset;
        psi[0] = heading;
        double cost = 0.0;
        for (int k = 0; k < h; ++k) {
            y[size_t(k) + 1] = y[size_t(k)] +
                               v * std::sin(psi[size_t(k)]) * dt;
            psi[size_t(k) + 1] = psi[size_t(k)] + u[size_t(k)] * dt;
            cost += cfg.qOffset * y[size_t(k) + 1] * y[size_t(k) + 1] +
                    cfg.qHeading * psi[size_t(k) + 1] *
                        psi[size_t(k) + 1] +
                    cfg.rControl * u[size_t(k)] * u[size_t(k)];
        }
        return cost;
    };

    double cost = rollout();
    double step = cfg.stepSize;
    int iters = 0;
    while (iters < cfg.maxIterations) {
        // Adjoint (backward) pass for the gradient of the quadratic
        // cost through the unicycle dynamics.
        double lam_y = 0.0, lam_psi = 0.0;
        for (int k = h - 1; k >= 0; --k) {
            // Terminal-to-initial accumulation: costs at step k+1.
            lam_y += 2.0 * cfg.qOffset * y[size_t(k) + 1];
            lam_psi += 2.0 * cfg.qHeading * psi[size_t(k) + 1];
            grad[size_t(k)] =
                2.0 * cfg.rControl * u[size_t(k)] + lam_psi * dt;
            // Propagate sensitivities one step back.
            lam_psi += lam_y * v * std::cos(psi[size_t(k)]) * dt;
        }
        for (int k = 0; k < h; ++k) {
            u[size_t(k)] = clampd(
                u[size_t(k)] - step * grad[size_t(k)] / double(h),
                -cfg.maxYawRate, cfg.maxYawRate);
        }
        ++iters;
        double new_cost = rollout();
        double improvement =
            cost > 1e-12 ? (cost - new_cost) / cost : 0.0;
        if (improvement < 0.0)
            step *= 0.5; // overshot: back off
        cost = new_cost;
        // Converged once the cost stops moving — reached faster from
        // small initial errors, which is what makes the per-solve
        // runtime data-dependent.
        if (std::abs(improvement) < cfg.tolerance)
            break;
    }
    iterations_out = iters;
    if (final_cost)
        *final_cost = cost;
    return u;
}

MpcApp::MpcApp(bridge::TargetDriver &driver, const soc::SocConfig &soc,
               const MpcConfig &cfg)
    : driver_(driver), soc_(soc), cfg_(cfg)
{
}

soc::Action
MpcApp::ioAction(const char *label)
{
    uint64_t accesses = driver_.takeAccessCount();
    Cycles c = accesses * soc_.cpuParams.mmioAccessCycles;
    return soc::Action::compute(c ? c : 1, soc::Unit::Io, label);
}

soc::Action
MpcApp::next(const soc::SocContext &ctx)
{
    switch (state_) {
      case State::Boot:
        state_ = State::SendRequest;
        return soc::Action::compute(cfg_.bootCycles, soc::Unit::Cpu,
                                    "boot");

      case State::SendRequest:
        current_ = MpcRecord{};
        current_.requestCycle = ctx.now;
        if (!driver_.txSend(bridge::encodeImageReq()))
            rose_warn("mpc app: image request backpressured");
        haveImage_ = false;
        state_ = State::AwaitResponse;
        return ioAction("sensor-request");

      case State::AwaitResponse:
        state_ = State::ReadAndSolve;
        return soc::Action::waitRx("sensor-wait");

      case State::ReadAndSolve: {
        while (auto p = driver_.rxPop()) {
            if (p->type == bridge::PacketType::ImageResp) {
                bridge::decodeImageRespInto(*p, image_);
                haveImage_ = true;
            }
        }
        if (!haveImage_) {
            state_ = State::AwaitResponse;
            return ioAction("sensor-poll");
        }

        // Visual front end + iterative solve. The cycle charge is
        // data-dependent through the iteration count.
        dnn::PoseEstimate pose =
            dnn::estimatePose(image_, cfg_.estimator, poseScratch_);
        current_.offsetEstimate = pose.valid ? pose.offsetM : 0.0;
        current_.headingEstimate = pose.valid ? pose.headingRad : 0.0;

        int iters = 0;
        double cost = 0.0;
        std::vector<double> u =
            solveMpc(current_.offsetEstimate,
                     current_.headingEstimate, cfg_, iters, &cost);
        current_.solverIterations = iters;
        current_.cost = cost;
        current_.command.forward = cfg_.forwardVelocity;
        current_.command.lateral = 0.0;
        current_.command.yawRate = u.empty() ? 0.0 : u.front();

        double flops = cfg_.frontEndFlops +
                       double(iters) * cfg_.flopsPerIteration;
        solveCycles_ =
            Cycles(flops / soc_.cpuParams.flopsPerCycle);
        state_ = State::SendCommand;
        return soc::Action::compute(solveCycles_, soc::Unit::Cpu,
                                    "mpc-solve");
      }

      case State::SendCommand:
        if (!driver_.txSend(
                bridge::encodeVelocityCmd(current_.command)))
            rose_warn("mpc app: command backpressured");
        current_.commandCycle = ctx.now;
        records_.push_back(current_);
        state_ = State::SendRequest;
        return ioAction("command-send");
    }
    rose_panic("unreachable MPC state");
}

} // namespace rose::runtime
