/**
 * @file
 * The one campaign runner: the crash-point sweep and the dolos_torture
 * campaigns (random op programs and one-fault episodes) all run their
 * cases through runCampaign.
 *
 * Cases are self-contained (fresh System, golden model and thread-local
 * crash-point registry each) and case k writes its outcome into slot k
 * of the caller's vector, so results do not depend on the worker count;
 * only the heartbeat interleaving on stderr does. Drivers report per
 * case after the run, in case order.
 */

#ifndef DOLOS_VERIFY_CAMPAIGN_HH
#define DOLOS_VERIFY_CAMPAIGN_HH

#include <functional>

#include "sim/heartbeat.hh"

namespace dolos::verify
{

/** What one finished case reports to the campaign monitor. */
struct CaseVerdict
{
    std::uint64_t seed = 0; ///< the case's reproducer (seed, crash op)
    bool failed = false;
};

/**
 * Run @p body(k) for every k in [0, n) on min(jobs, n) workers (jobs 0
 * counts as 1), reporting each verdict to @p monitor. The calling
 * thread is a worker, so jobs == 1 runs the cases on it in order. A
 * throwing case stops further claims; after every worker has joined,
 * the lowest-index case's exception is rethrown (every lower case was
 * claimed first, so it is the same whatever the scheduling).
 */
void runCampaign(std::size_t n, unsigned jobs, CampaignMonitor &monitor,
                 const std::function<CaseVerdict(std::size_t)> &body);

} // namespace dolos::verify

#endif // DOLOS_VERIFY_CAMPAIGN_HH
