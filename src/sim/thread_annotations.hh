/**
 * @file
 * Thread-sharing annotations: the machine-checked concurrency model.
 *
 * The parallel sweep lanes (--jobs N in SweepDriver and the
 * dolos_torture campaigns) run one fully self-contained System per
 * worker thread.
 * That only works if every piece of mutable state outside a System is
 * either (a) confined to one worker (thread_local, or per-worker by
 * construction) or (b) explicitly synchronized. This header gives
 * those two disciplines names that tools/dolos_lint enforces: the
 * thread-shared check flags every namespace-scope / static-local
 * mutable variable in src/ that carries neither a thread_local
 * qualifier nor one of the annotations below.
 *
 *  - DOLOS_THREAD_SHARED(lock): the variable IS shared across worker
 *    threads and every access is serialized by the named lock (or
 *    lock-free discipline). The name is documentation the reviewer
 *    can grep for; the macro compiles to a static_assert proving the
 *    token is non-empty.
 *
 *  - DOLOS_THREAD_LOCAL_OK: the variable is mutable at namespace /
 *    static scope but never touched by sweep worker threads — e.g.
 *    CLI option globals parsed in main() before any worker starts,
 *    or state that is write-once before the parallel region. The
 *    annotation is a reviewed claim, dynamically validated by the
 *    tsan_lane ctest.
 *
 * Placement: put the annotation on the declaration line or on its
 * own line immediately above the declaration (the lint associates an
 * annotation with the next declaration within two lines).
 *
 * Const / constexpr / thread_local variables never need annotating:
 * immutable state is freely shared and thread_local state is
 * confined by the language.
 */

#ifndef DOLOS_SIM_THREAD_ANNOTATIONS_HH
#define DOLOS_SIM_THREAD_ANNOTATIONS_HH

/**
 * Mutable global shared across worker threads; all access serialized
 * by @p lock (a member/variable name, or a short discipline token
 * such as atomics).
 */
#define DOLOS_THREAD_SHARED(lock)                                     \
    static_assert(sizeof(#lock) > 1,                                  \
                  "DOLOS_THREAD_SHARED needs a lock name")

/**
 * Mutable global that sweep worker threads never touch (parsed /
 * written before the parallel region, or main-thread-only).
 */
#define DOLOS_THREAD_LOCAL_OK                                         \
    static_assert(true, "confined to one thread by construction")

#endif // DOLOS_SIM_THREAD_ANNOTATIONS_HH
