/**
 * @file
 * PmemEnv implementation.
 */

#include "workloads/pmem.hh"

#include <stdexcept>
#include <string>

#include "sim/logging.hh"

namespace dolos::workloads
{

PmemEnv::PmemEnv(System &sys) : sys(sys)
{
    reattach();
}

void
PmemEnv::tick()
{
    ++ops;
    if (opHook)
        opHook();
}

void
PmemEnv::readBytes(Addr addr, void *out, unsigned len)
{
    tick();
    sys.core().load(addr, out, len);
}

void
PmemEnv::writeBytes(Addr addr, const void *src, unsigned len)
{
    tick();
    sys.core().store(addr, src, len);
}

void
PmemEnv::flush(Addr addr, unsigned len)
{
    for (Addr a = blockAlign(addr); a < addr + len; a += blockSize) {
        tick();
        sys.core().clwb(a);
    }
}

void
PmemEnv::fence()
{
    tick();
    sys.core().sfence();
}

Addr
PmemEnv::alloc(unsigned size, unsigned align)
{
    DOLOS_ASSERT(align != 0 && (align & (align - 1)) == 0,
                 "alignment must be a power of two");
    Addr base = (allocCursor + align - 1) & ~Addr(align - 1);
    const Addr end = base + size;
    const Addr limit = sys.config().secure.functionalLeaves * pageBytes;
    if (end > limit)
        throw std::invalid_argument(
            "persistent heap exhausted: a " + std::to_string(size) +
            "-byte allocation passes the " + std::to_string(limit) +
            "-byte heap limit (secure.functionalLeaves pages); use a "
            "smaller transaction size or fewer keys");
    allocCursor = end;
    write<Addr>(PmemLayout::allocCursorAddr, allocCursor);
    flush(PmemLayout::allocCursorAddr, sizeof(Addr));
    return base;
}

void
PmemEnv::reattach()
{
    allocCursor = read<Addr>(PmemLayout::allocCursorAddr);
    if (allocCursor < PmemLayout::heapBase)
        allocCursor = PmemLayout::heapBase;
}

Addr
PmemEnv::rootPtr(unsigned slot)
{
    DOLOS_ASSERT(slot < PmemLayout::numRootSlots, "bad root slot");
    return read<Addr>(PmemLayout::rootSlotBase + slot * 8);
}

void
PmemEnv::setRootPtr(unsigned slot, Addr value)
{
    DOLOS_ASSERT(slot < PmemLayout::numRootSlots, "bad root slot");
    write<Addr>(PmemLayout::rootSlotBase + slot * 8, value);
    flush(PmemLayout::rootSlotBase + slot * 8, 8);
    fence();
}

} // namespace dolos::workloads
