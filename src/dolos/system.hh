/**
 * @file
 * Public facade: one simulated machine.
 *
 * Wires NVM, security engine, memory controller, cache hierarchy and
 * core according to a SystemConfig, and orchestrates power failures
 * and recovery. This is the primary entry point of the library:
 *
 *   auto cfg = dolos::SystemConfig::paperDefault();
 *   cfg.mode = dolos::SecurityMode::DolosPartialWpq;
 *   dolos::System sys(cfg);
 *   ... drive sys.core() with loads/stores/clwb/sfence ...
 *   auto dump = sys.crash();     // power failure (ADR drains WPQ)
 *   auto rec = sys.recover();    // reboot: verify, drain, rebuild
 */

#ifndef DOLOS_DOLOS_SYSTEM_HH
#define DOLOS_DOLOS_SYSTEM_HH

#include <memory>
#include <ostream>
#include <vector>

#include "cpu/core.hh"
#include "dolos/controller.hh"

namespace dolos
{

/** A complete simulated machine. */
class System
{
  public:
    explicit System(const SystemConfig &cfg);

    SimpleCore &core() { return *core_; }
    CacheHierarchy &hierarchy() { return *hier; }
    SecureMemController &controller() { return *mc; }
    SecurityEngine &engine() { return *eng; }
    NvmDevice &nvmDevice() { return *nvm; }
    const SystemConfig &config() const { return cfg; }

    /**
     * Power failure at the core's current tick: caches and all other
     * volatile state are lost; ADR flushes the WPQ.
     * @p mid_operation marks a microstep crash (power dying inside a
     * drain's security work): the controller then dumps the WPQ as
     * found instead of letting the in-flight drain finish.
     */
    CrashDumpReport crash(bool mid_operation = false);

    /** Boot after a crash: authenticate, drain, rebuild metadata. */
    ControllerRecoveryReport recover();

    /**
     * Boot and, if an armed fault interrupts recovery, keep power-
     * cycling until recovery completes. Returns the final attempt's
     * report; @p attempts_out (if given) receives the boot count.
     */
    ControllerRecoveryReport
    recoverToCompletion(unsigned *attempts_out = nullptr,
                        unsigned max_attempts = 16);

    /** True if any integrity check has ever failed. */
    bool attackDetected() const { return eng->attackDetected(); }

    /** True if any block was retired as unrecoverable (media). */
    bool unrecoverableMedia() const
    {
        return nvm->quarantineCount() != 0;
    }

    /**
     * Attach an interval stats sampler (nullptr detaches): registers
     * every component's stat group with @p s and has the core poll
     * it on each clock advance. Call the sampler's begin() after
     * attaching, and its finish() before reading the timeline.
     */
    void attachStatSampler(stats::StatSampler *s);

    /** Dump all statistics. */
    void dumpStats(std::ostream &os) const;

    /**
     * Dump all statistics as one JSON object: a per-stage cycle
     * "breakdown" (Mi-SU/Ma-SU MAC, BMT climb, WPQ-full stalls,
     * fence stalls) plus the full stat-group tree under "groups".
     */
    void dumpStatsJson(std::ostream &os) const;

    /**
     * Structured damage report: quarantined blocks with reasons and
     * retry counts, media-error/heal counters, and the attack flag.
     * Written by the CLI drivers when degrading instead of aborting.
     */
    void dumpDamageJson(std::ostream &os) const;

    /** Register every member into the crash-state manifest. */
    persist::StateManifest stateManifest() const;

    /**
     * Collect the manifests of every state class in this machine
     * (the facade itself plus each component, per instance). This is
     * the complete machine-checked crash-state model that the
     * power-loss differential (src/verify/manifest_check) proves
     * against crash().
     */
    std::vector<persist::StateManifest> collectStateManifests() const;

  private:
    SystemConfig cfg;
    std::unique_ptr<NvmDevice> nvm;
    std::unique_ptr<SecurityEngine> eng;
    std::unique_ptr<SecureMemController> mc;
    std::unique_ptr<CacheHierarchy> hier;
    std::unique_ptr<SimpleCore> core_;
};

} // namespace dolos

#endif // DOLOS_DOLOS_SYSTEM_HH
