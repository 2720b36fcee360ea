/**
 * @file
 * Microstep crash-point registry implementation.
 */

#include "sim/crash_points.hh"

namespace dolos::crashpoint
{

const char *
stepName(Step s)
{
    switch (s) {
      case Step::MasuCtrFetch: return "masuCtrFetch";
      case Step::MasuCtrBumped: return "masuCtrBumped";
      case Step::MasuAesPad: return "masuAesPad";
      case Step::MasuMacStored: return "masuMacStored";
      case Step::MasuBmtLevel: return "masuBmtLevel";
      case Step::MasuBmtCoalesce: return "masuBmtCoalesce";
      case Step::MasuRootCommit: return "masuRootCommit";
      case Step::MasuCtrEvict: return "masuCtrEvict";
      case Step::WpqDrainIssue: return "wpqDrainIssue";
      case Step::WpqCtWrite: return "wpqCtWrite";
      case Step::WpqRedoClear: return "wpqRedoClear";
      case Step::EadrLineSelect: return "eadrLineSelect";
      case Step::EadrNvmWrite: return "eadrNvmWrite";
      case Step::EadrBudgetExhausted: return "eadrBudgetExhausted";
      case Step::NumSteps: break;
    }
    return "unknown";
}

Registry &
Registry::instance()
{
    // One registry per thread: each parallel sweep worker (--jobs N)
    // arms and probes its own crash plan against its own System, so
    // worker A's countdown never fires inside worker B's machine.
    static thread_local Registry r;
    return r;
}

void
Registry::reset()
{
    counting_ = false;
    armed_.reset();
    fired_.reset();
    firings_ = 0;
    perStep_.fill(0);
    sequence_.clear();
}

void
Registry::enableCounting()
{
    counting_ = true;
}

void
Registry::arm(std::uint64_t fire_at)
{
    armed_ = fire_at;
    fired_.reset();
}

void
Registry::fire(Step s)
{
    const std::uint64_t index = firings_++;
    ++perStep_[static_cast<std::size_t>(s)];
    if (counting_)
        sequence_.push_back(s);
    if (armed_ && index == *armed_) {
        // Auto-disarm: recovery re-drains through the very same
        // instrumented path and must run to completion.
        armed_.reset();
        fired_ = s;
        throw MicrostepCrash{s, index};
    }
}

} // namespace dolos::crashpoint
