/**
 * @file
 * Campaign runner implementation.
 */

#include "verify/campaign.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace dolos::verify
{

void
runCampaign(std::size_t n, unsigned jobs, CampaignMonitor &monitor,
            const std::function<CaseVerdict(std::size_t)> &body)
{
    std::atomic<std::size_t> next{0};
    std::mutex errMu;
    std::size_t errIndex = n;
    std::exception_ptr error;
    const auto worker = [&] {
        for (std::size_t k; (k = next.fetch_add(1)) < n;) {
            try {
                const CaseVerdict v = body(k);
                monitor.caseDone(v.seed, v.failed);
            } catch (...) {
                const std::lock_guard<std::mutex> g(errMu);
                if (k < errIndex) {
                    errIndex = k;
                    error = std::current_exception();
                }
                next = n; // stop claiming
                return;
            }
        }
    };

    const std::size_t workers = std::min<std::size_t>(jobs, n);
    std::vector<std::thread> helpers;
    helpers.reserve(workers);
    for (std::size_t w = 1; w < workers; ++w) {
        try {
            helpers.emplace_back(worker);
        } catch (const std::system_error &) {
            break; // out of threads: the started workers finish the run
        }
    }
    worker();
    for (auto &t : helpers)
        t.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace dolos::verify
