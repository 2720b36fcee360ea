/**
 * @file
 * Ma-SU persistent redo-log buffer (paper Figure 11).
 *
 * Before Ma-SU overwrites the metadata caches and NVM for a drained
 * WPQ entry, it stages every tentative result — ciphertext, data MAC,
 * counter — in on-chip persistent registers and only then sets the
 * ready bit. A crash between "ready" and the completion of step 3/4
 * is recovered by replaying the log; a crash before "ready" discards
 * it and re-processes the WPQ entry.
 *
 * Figure 11's tentative tree root is not staged here: it is the
 * security engine's root register, committed in the same group as
 * the ready bit (no crash point between them), so while the bit is
 * set the register already holds it.
 */

#ifndef DOLOS_DOLOS_REDO_LOG_HH
#define DOLOS_DOLOS_REDO_LOG_HH

#include "crypto/mac_engine.hh"
#include "mem/block.hh"
#include "sim/persist_annotations.hh"

namespace dolos
{

/** The staged results of one Ma-SU drain step. */
struct RedoLogRecord
{
    Addr addr = 0;
    Block ciphertext{};
    crypto::MacTag dataMac{};
    std::uint64_t counter = 0;
};

inline void
dolosDescribeValue(std::ostream &os, const RedoLogRecord &r)
{
    os << r.addr << '/' << persist::describe(r.ciphertext) << '/'
       << persist::describe(r.dataMac) << '/' << r.counter;
}

/** On-chip persistent redo-log buffer with a ready bit. */
class RedoLogBuffer
{
  public:
    /** Stage a record; the ready bit is set atomically last. */
    void
    fill(const RedoLogRecord &record)
    {
        rec = record;
        ready_ = true;
    }

    /** Clear the ready bit after step 3/4 complete. */
    void clear() { ready_ = false; }

    /** True if a staged record awaits replay. */
    bool ready() const { return ready_; }

    /** The staged record (valid only when ready()). */
    const RedoLogRecord &record() const { return rec; }

    /** Register every member into the crash-state manifest. */
    persist::StateManifest stateManifest() const;

  private:
    RedoLogRecord rec;
    bool ready_ = false;
};

} // namespace dolos

#endif // DOLOS_DOLOS_REDO_LOG_HH
