/**
 * @file
 * System facade implementation.
 */

#include "dolos/system.hh"

#include <stdexcept>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/stat_sampler.hh"

namespace dolos
{

System::System(const SystemConfig &config) : cfg(config)
{
    const std::string err = validateConfig(cfg);
    if (!err.empty())
        throw std::invalid_argument("invalid SystemConfig: " + err);
    nvm = std::make_unique<NvmDevice>(cfg.nvm);
    eng = std::make_unique<SecurityEngine>(cfg.secure, *nvm);
    mc = std::make_unique<SecureMemController>(cfg, *nvm, *eng);
    // The persistence-domain boundary is a machine property, not a
    // user knob: EadrSecure pulls the caches inside it (CLWB becomes
    // a completed no-op and crash() runs the holdup flush).
    HierarchyParams hp = cfg.hierarchy;
    hp.eadrDomain = modeTraits(cfg.mode).eadrDomain;
    hier = std::make_unique<CacheHierarchy>(hp, *mc);
    core_ = std::make_unique<SimpleCore>(*hier);
}

CrashDumpReport
System::crash(bool mid_operation)
{
    CrashDumpReport report;
    if (modeTraits(cfg.mode).eadrDomain) {
        // Capture the eADR persistence domain (every dirty line)
        // before the caches die; the controller's holdup flush
        // drains it through the security pipeline on residual
        // energy.
        std::vector<DirtyLine> lines;
        hier->collectDirtyLines(lines);
        report = mc->crash(core_->now(),
                           /*complete_in_flight=*/!mid_operation,
                           &lines);
    } else {
        report =
            mc->crash(core_->now(), /*complete_in_flight=*/!mid_operation);
    }
    hier->invalidateAll();
    core_->notifyCrash();
    return report;
}

ControllerRecoveryReport
System::recover()
{
    return mc->recover();
}

ControllerRecoveryReport
System::recoverToCompletion(unsigned *attempts_out,
                            unsigned max_attempts)
{
    auto rec = mc->recover();
    unsigned attempts = 1;
    while (rec.interrupted && attempts < max_attempts) {
        // The armed fault killed power mid-recovery: model the second
        // outage and reboot. The journal makes the retry resume, not
        // restart.
        crash();
        rec = mc->recover();
        ++attempts;
    }
    DOLOS_ASSERT(!rec.interrupted,
                 "recovery still interrupted after %u attempts",
                 attempts);
    if (attempts_out)
        *attempts_out = attempts;
    return rec;
}

void
System::attachStatSampler(stats::StatSampler *s)
{
    if (s) {
        s->addGroup(&core_->statGroup());
        s->addGroup(&hier->statGroup());
        s->addGroup(&mc->statGroup());
        s->addGroup(&eng->statGroup());
        s->addGroup(&nvm->statGroup());
    }
    core_->setStatSampler(s);
}

void
System::dumpStats(std::ostream &os) const
{
    core_->statGroup().dump(os, cfg.name);
    hier->statGroup().dump(os, cfg.name);
    mc->statGroup().dump(os, cfg.name);
    eng->statGroup().dump(os, cfg.name);
    nvm->statGroup().dump(os, cfg.name);
}

void
System::dumpStatsJson(std::ostream &os) const
{
    const std::uint64_t misu_mac =
        mc->misu() ? mc->misu()->macCycles() : 0;
    os << "{\"name\":\"" << json::escape(cfg.name) << "\",\"mode\":\""
       << securityModeName(cfg.mode) << "\"";
    // The per-write-stage cycle totals every security mode reports,
    // surfaced from the stat tree for direct consumption.
    os << ",\"breakdown\":{"
       << "\"misuMacCycles\":" << misu_mac
       << ",\"macCycles\":" << eng->macCycles()
       << ",\"bmtCycles\":" << eng->bmtCycles()
       << ",\"aesCycles\":" << eng->aesCycles()
       << ",\"ctrFetchCycles\":" << eng->ctrFetchCycles()
       << ",\"wpqStallCycles\":" << mc->wpqStallCycles()
       << ",\"fenceStallCycles\":" << core_->fenceStallCycles()
       << "}";
    os << ",\"groups\":[";
    stats::StatGroup *groups[] = {&core_->statGroup(),
                                  &hier->statGroup(), &mc->statGroup(),
                                  &eng->statGroup(), &nvm->statGroup()};
    bool first = true;
    for (auto *g : groups) {
        if (!first)
            os << ",";
        g->dumpJson(os);
        first = false;
    }
    os << "]}";
}

void
System::dumpDamageJson(std::ostream &os) const
{
    os << "{\"name\":\"" << json::escape(cfg.name) << "\",\"mode\":\""
       << securityModeName(cfg.mode) << "\""
       << ",\"attackDetected\":"
       << (attackDetected() ? "true" : "false")
       << ",\"unrecoverableMedia\":"
       << (unrecoverableMedia() ? "true" : "false")
       << ",\"media\":{"
       << "\"errorReads\":" << nvm->mediaErrorReads()
       << ",\"errorWrites\":" << nvm->mediaErrorWrites()
       << ",\"retries\":" << nvm->mediaRetries()
       << ",\"healed\":" << nvm->mediaHealed()
       << ",\"quarantineReads\":" << eng->quarantineReads()
       << ",\"spareRemaps\":" << nvm->remapLog().size()
       << ",\"sparesLeft\":" << nvm->sparesLeft() << "}"
       << ",\"repairs\":{"
       << "\"metaMediaFaults\":" << eng->metaMediaFaults()
       << ",\"counterBlocksRebuilt\":" << eng->counterBlocksRebuilt()
       << ",\"treeNodesRepaired\":" << eng->treeNodesRepaired()
       << ",\"macBlocksRebuilt\":" << eng->macBlocksRebuilt()
       << ",\"cascadedBlocks\":" << eng->cascadedBlocks()
       << ",\"shadowSlotsSkipped\":" << eng->shadowSlotsSkipped()
       << ",\"rootReanchored\":" << eng->rootReanchors()
       << ",\"scrubPasses\":" << eng->scrubPasses()
       << ",\"scrubRepairs\":" << eng->scrubRepairs() << "}"
       << ",\"quarantined\":[";
    bool first = true;
    for (const auto &[addr, rec] : nvm->quarantineLog()) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"addr\":" << addr << ",\"region\":\""
           << nvmRegionName(cfg.secure.map.regionOf(addr))
           << "\",\"reason\":\"" << json::escape(rec.reason)
           << "\",\"retries\":" << rec.retries << ",\"cause\":\""
           << json::escape(rec.cause) << "\"}";
    }
    os << "]}\n";
}

persist::StateManifest
System::stateManifest() const
{
    persist::StateManifest m("System");
    DOLOS_MF_CONST(m, cfg);
    DOLOS_MF_DELEGATED_P(m, nvm);
    DOLOS_MF_DELEGATED_P(m, eng);
    DOLOS_MF_DELEGATED_P(m, mc);
    DOLOS_MF_DELEGATED_P(m, hier);
    DOLOS_MF_DELEGATED_P(m, core_);
    return m;
}

std::vector<persist::StateManifest>
System::collectStateManifests() const
{
    std::vector<persist::StateManifest> out;
    out.push_back(stateManifest());
    out.push_back(core_->stateManifest());
    out.push_back(hier->stateManifest());
    hier->l1().collectStateManifests(out, "l1");
    hier->l2().collectStateManifests(out, "l2");
    hier->llc().collectStateManifests(out, "llc");
    mc->collectStateManifests(out);
    eng->collectStateManifests(out);
    out.push_back(nvm->stateManifest());
    // The ADR crash dump and the recovery journal are the two NVM
    // regions the crash path itself legitimately (re)writes; the
    // cell-array round-trip check excludes them.
    const AddressMap map = cfg.secure.map;
    out.push_back(nvm->store().stateManifest([map](Addr a) {
        const auto region = map.regionOf(a);
        return region == NvmRegion::WpqDump ||
               region == NvmRegion::RecoveryJournal;
    }));
    return out;
}

} // namespace dolos
