# Sub-build lanes (ctest tier2): configure a separate build tree with
# one lane's options and -Werror, build the lane's targets, then run
# the lane's checks against that tree.
#
#   sanitize        ASan+UBSan (DOLOS_SANITIZE=ON). dolos_lint over the
#                   real tree gates the lane, then the compound-failure
#                   drivers run the paths most likely to hide memory
#                   bugs. Any report aborts the binary
#                   (-fno-sanitize-recover) and fails an expect_rc.
#   tsan            ThreadSanitizer (DOLOS_TSAN=ON): the dynamic half
#                   of the thread-shared lint audit. The --jobs 4
#                   sweep and campaign paths run under
#                   TSAN_OPTIONS=halt_on_error=1, so any data race
#                   aborts the binary. Skips (the ctest
#                   SKIP_REGULAR_EXPRESSION matches "ThreadSanitizer
#                   not available") when the toolchain cannot build or
#                   run -fsanitize=thread binaries.
#   release_werror  Release (-O3), every target, build only: the tree
#                   must stay warning-clean at -O3 too.
#
# Invoked as:
#   cmake -DLANE=<lane> -DSOURCE_DIR=<repo root> -DWORKDIR=<dir>
#         -P sub_build_lane.cmake

foreach(var LANE SOURCE_DIR WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "sub_build_lane: ${var} not set")
    endif()
endforeach()

set(run_env)
if(LANE STREQUAL "sanitize")
    set(options -DDOLOS_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo)
    set(targets dolos_torture_cli dolos_sim_cli)
elseif(LANE STREQUAL "tsan")
    set(options -DDOLOS_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo)
    set(targets dolos_torture_cli)
    set(run_env TSAN_OPTIONS=halt_on_error=1)
elseif(LANE STREQUAL "release_werror")
    set(options -DCMAKE_BUILD_TYPE=Release)
    set(targets all)
else()
    message(FATAL_ERROR "sub_build_lane: unknown LANE '${LANE}'")
endif()
set(lane "${LANE}_lane")

# Run one step of the lane; any nonzero exit fails the lane.
function(step what)
    execute_process(
        COMMAND ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${lane}: ${what} failed (rc=${rc})\n${out}\n${err}")
    endif()
endfunction()

function(expect_rc expected)
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E env ${run_env} ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL ${expected})
        message(FATAL_ERROR
            "${lane}: expected rc=${expected}, got rc=${rc} "
            "for: ${ARGN}\n${out}\n${err}")
    endif()
endfunction()

if(LANE STREQUAL "tsan")
    # Probe: can the host compiler build and link a threaded TSan
    # binary, and can it run here?
    set(probe_dir "${WORKDIR}/tsan-probe")
    file(MAKE_DIRECTORY "${probe_dir}")
    file(WRITE "${probe_dir}/probe.cc" "int main() { return 0; }\n")
    find_program(CXX NAMES c++ g++ clang++)
    if(NOT CXX)
        message(STATUS "${lane}: no C++ compiler found — "
                       "ThreadSanitizer not available")
        return()
    endif()
    execute_process(
        COMMAND "${CXX}" -fsanitize=thread "${probe_dir}/probe.cc"
                -o "${probe_dir}/probe"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(STATUS "${lane}: toolchain cannot link "
                       "-fsanitize=thread — ThreadSanitizer not available")
        return()
    endif()
    execute_process(
        COMMAND "${probe_dir}/probe"
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        # e.g. TSan runtime rejects the kernel's ASLR settings.
        message(STATUS "${lane}: TSan-instrumented probe cannot run "
                       "here — ThreadSanitizer not available")
        return()
    endif()
endif()

set(build "${WORKDIR}/${LANE}-build")
file(MAKE_DIRECTORY "${build}")
cmake_host_system_information(RESULT jobs QUERY NUMBER_OF_LOGICAL_CORES)

step(configure "${CMAKE_COMMAND}" -S "${SOURCE_DIR}" -B "${build}"
     ${options} -DDOLOS_WERROR=ON)

if(LANE STREQUAL "sanitize")
    # Static checks gate the lane: build and run dolos_lint over the
    # real tree before spending time on the sanitizer build proper.
    step("lint build" "${CMAKE_COMMAND}" --build "${build}" -j ${jobs}
         --target dolos_lint)
    step("dolos_lint" "${build}/tools/dolos_lint" "${SOURCE_DIR}/src"
         "${SOURCE_DIR}/tools")
endif()

step(build "${CMAKE_COMMAND}" --build "${build}" -j ${jobs}
     --target ${targets})

set(torture "${build}/tools/dolos_torture")
set(sim "${build}/tools/dolos-sim")

if(LANE STREQUAL "sanitize")
    # Crash sweep with a mid-recovery crash armed at every point.
    expect_rc(0 "${torture}" --sweep --recovery-crash 2 --budget 2
                --txns 2)

    # Randomized compound-failure campaign (crashes + media faults).
    expect_rc(0 "${torture}" --campaign 4 --seed 11 --ops 60)

    # Metadata-fault crash sweep: stuck-at faults on counter / tree /
    # MAC frames after every sampled power-off, exercising the repair
    # and cascade paths under the sanitizers.
    expect_rc(0 "${torture}" --sweep --points every-op --meta-faults
                --budget 2 --txns 2)

    # Microstep crash sweep: power failures inside a drain (mid BMT
    # climb, between the ciphertext write and the redo clear) — the
    # exception-unwound drain plus re-drained recovery is exactly the
    # kind of path sanitizers catch lifetime bugs in.
    expect_rc(0 "${torture}" --sweep --points microstep --budget 2
                --txns 2 --mode dolos-partial)

    # eADR flush-microstep sweep: power dies inside the power-fail
    # holdup flush itself — the exception-unwound flush loop, the
    # quarantine writer, and the anchored probe/replay machinery all
    # juggle captured cache lines whose lifetimes the sanitizers check.
    expect_rc(0 "${torture}" --sweep --points microstep --budget 2
                --txns 2 --mode eadr)

    # The oracle's violation path: a planted dropped CLWB makes the
    # golden model adjudicate 63 wrong bytes, so its byte-mask
    # arithmetic and diagnostic formatting run under the sanitizers.
    expect_rc(1 "${torture}" --mode dolos-partial --plant-bug drop-clwb:0
                --opt-knobs all --replay w:15:15,f:15,s,c)

    # Starved holdup budget through the replay driver: the quarantined
    # tail and the unrecoverable-media exit path under ASan.
    expect_rc(4 "${torture}" --mode eadr --eadr-budget 1
                --replay w:1:7,w:2:8,w:3:9,c)

    # Media quarantine path through the full CLI, including the damage
    # report writer.
    expect_rc(4 "${sim}" --workload hashmap --mode dolos-partial
                --txns 30 --keys 64 --media-fault stuck
                --damage-json "${WORKDIR}/damage.json")
elseif(LANE STREQUAL "tsan")
    # Parallel microstep sweep slices: 4 workers each running
    # self-contained Systems with thread-local crash-point registries —
    # the exact configuration the thread-shared audit certifies.
    expect_rc(0 "${torture}" --sweep --points microstep --budget 12
                --txns 2 --mode dolos-partial --jobs 4)
    expect_rc(0 "${torture}" --sweep --points microstep --budget 12
                --txns 2 --mode eadr --jobs 4)

    # Parallel every-op sweep with a mid-recovery crash armed: the
    # compound-failure path under contention.
    expect_rc(0 "${torture}" --sweep --points every-op --budget 8
                --txns 2 --recovery-crash 2 --jobs 4)

    # Parallel randomized torture campaign: episodes race through the
    # debug-flag set, campaign monitor, and the per-thread singletons.
    expect_rc(0 "${torture}" --campaign 8 --seed 11 --ops 60 --jobs 4)

    # Parallel one-fault campaign: all modes x workloads with faults.
    expect_rc(0 "${torture}" --faults 2 --jobs 4 --heartbeat 3)
endif()

message(STATUS "${lane}: OK")
