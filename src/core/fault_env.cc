#include "core/fault_env.hh"

#include <cmath>
#include <limits>

#include "common/status.hh"

namespace unico::core {

using common::EvalFault;
using common::EvalStatus;
using common::FaultKind;

/** Per-candidate fault-injecting run wrapper. */
class FaultyRun : public MappingRun
{
  public:
    FaultyRun(std::unique_ptr<MappingRun> inner, const FaultyEnv *env,
              std::uint64_t stream_key)
        : inner_(std::move(inner)), env_(env), streamKey_(stream_key)
    {}

    void
    step(int evals) override
    {
        for (int i = 0; i < evals; ++i) {
            // The degraded rung (analytical model) is reliable: no
            // further injection once the supervisor has degraded us.
            const FaultKind kind =
                degraded_ ? FaultKind::None
                          : env_->plan_.decide(streamKey_, evalIndex_++);
            switch (kind) {
              case FaultKind::Transient:
                ++env_->transient_;
                throw EvalFault(EvalStatus::Transient,
                                "injected transient evaluation crash");
              case FaultKind::Hang:
                // A simulated hang: no wall time passes, but the
                // deadline it would have waited out is charged as
                // virtual search cost before it reports Timeout.
                ++env_->hang_;
                extraSeconds_ += env_->plan_.spec().deadlineSeconds;
                throw EvalFault(EvalStatus::Timeout,
                                "injected hang; deadline exceeded");
              case FaultKind::Corrupt:
                ++env_->corrupt_;
                inner_->step(1);
                corrupted_ = true;
                break;
              case FaultKind::None:
                inner_->step(1);
                corrupted_ = false;
                break;
            }
        }
    }

    int spent() const override { return inner_->spent(); }

    accel::Ppa
    bestPpa() const override
    {
        if (corrupted_) {
            // A corrupted evaluation reports garbage: NaN latency
            // with the feasible bit still set, exactly the kind of
            // silent damage the supervisor must detect via
            // Ppa::valid() before trusting an archive entry.
            accel::Ppa bad = inner_->bestPpa();
            bad.latencyMs = std::numeric_limits<double>::quiet_NaN();
            bad.powerMw = -1.0;
            bad.feasible = true;
            return bad;
        }
        return inner_->bestPpa();
    }

    const std::vector<double> &
    bestLossHistory() const override
    {
        return inner_->bestLossHistory();
    }

    double
    sensitivity(double alpha) const override
    {
        return inner_->sensitivity(alpha);
    }

    double
    chargedSeconds() const override
    {
        return inner_->chargedSeconds() + extraSeconds_;
    }

    bool
    degradeToAnalytical() override
    {
        // Degrading also re-runs nothing: incumbents are preserved by
        // the inner run. Injection stops either way — repeated faults
        // on this candidate were the reason to degrade, and the
        // fallback rung is assumed reliable.
        inner_->degradeToAnalytical();
        degraded_ = true;
        corrupted_ = false;
        return true;
    }

  private:
    std::unique_ptr<MappingRun> inner_;
    const FaultyEnv *env_;
    std::uint64_t streamKey_;
    std::uint64_t evalIndex_ = 0;
    double extraSeconds_ = 0.0;
    bool corrupted_ = false;
    bool degraded_ = false;
};

FaultyEnv::FaultyEnv(CoSearchEnv &inner, common::FaultPlan plan)
    : EnvDecorator(inner), plan_(plan)
{}

std::unique_ptr<MappingRun>
FaultyEnv::createRun(const accel::HwPoint &h, std::uint64_t seed) const
{
    return std::make_unique<FaultyRun>(inner_.createRun(h, seed), this,
                                       seed);
}

InjectionCounts
FaultyEnv::injected() const
{
    return InjectionCounts{transient_.load(), hang_.load(),
                           corrupt_.load()};
}

} // namespace unico::core
