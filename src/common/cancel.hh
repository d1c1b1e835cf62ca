/**
 * @file
 * Cooperative cancellation token.
 *
 * A CancelToken carries one sticky cancellation request plus the
 * reason it was raised. Producers (the shutdown signal handler, a
 * job-manager cancel, the driver's own wall-deadline check) cancel
 * it; consumers (the driver's MOBO/SH loops, thread-pool job
 * dispatch) poll it at cheap boundaries and wind down cooperatively.
 * The first cancel wins: a later cancel with a different reason does
 * not overwrite the recorded one.
 *
 * All operations are lock-free atomics, so cancel() is safe from a
 * POSIX signal handler (std::atomic<int> is async-signal-safe when
 * lock-free) and from any thread concurrently with polls.
 */

#ifndef UNICO_COMMON_CANCEL_HH
#define UNICO_COMMON_CANCEL_HH

#include <atomic>

namespace unico::common {

/** Why a token was cancelled. */
enum class CancelReason : int {
    None = 0,
    Signal,      ///< SIGINT/SIGTERM requested a graceful shutdown
    RunDeadline, ///< whole-run wall-clock deadline expired
    JobCancel,   ///< a job-manager client cancelled the job
};

/** Human-readable reason name. */
inline const char *
toString(CancelReason reason)
{
    switch (reason) {
      case CancelReason::None: return "none";
      case CancelReason::Signal: return "signal";
      case CancelReason::RunDeadline: return "wall-deadline";
      case CancelReason::JobCancel: return "cancelled";
    }
    return "?";
}

/** Sticky, reason-carrying cancellation flag. */
class CancelToken
{
  public:
    /** Request cancellation; the first caller's reason sticks.
     *  @return true if this call performed the cancellation. */
    bool
    cancel(CancelReason reason)
    {
        int expected = 0;
        return reason_.compare_exchange_strong(
            expected, static_cast<int>(reason),
            std::memory_order_acq_rel, std::memory_order_acquire);
    }

    /** True once cancelled (any reason). */
    bool
    cancelled() const
    {
        return reason_.load(std::memory_order_acquire) != 0;
    }

    /** The recorded reason (None while not cancelled). */
    CancelReason
    reason() const
    {
        return static_cast<CancelReason>(
            reason_.load(std::memory_order_acquire));
    }

    /** Re-arm the token (owner only, with no concurrent producer). */
    void
    reset()
    {
        reason_.store(0, std::memory_order_release);
    }

  private:
    std::atomic<int> reason_{0};
};

} // namespace unico::common

#endif // UNICO_COMMON_CANCEL_HH
