# Recorded-baseline performance gate (ctest tier2).
#
# Re-runs an experiment driver with the exact parameters its committed
# baseline artifact was recorded with, then diffs the fresh artifact
# against the baseline with dolos_report. The simulator is
# deterministic, so any drift is a real modeling change: regressions
# beyond 2% fail the gate, and an intentional change is
# blessed by re-recording the baseline with the same driver flags,
# e.g.:
#
#   bench/intro_overhead --txns 120 --keys 64 --seed 7 \
#       --json tests/baselines/BENCH_intro_overhead.json
#   bench/fig12_speedup_eager --txns 40 --keys 64 --seed 7 \
#       --json tests/baselines/BENCH_fig12_speedup_eager.json
#
# Invoked as:
#   cmake -DBENCH=<driver> -DREPORT=<dolos_report>
#         -DBASELINE=<BENCH_*.json> -DWORKDIR=<dir>
#         [-DTXNS=N] [-DKEYS=N] [-DSEED=N] -P bench_baseline.cmake

foreach(var BENCH REPORT BASELINE WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "bench_baseline: ${var} not set")
    endif()
endforeach()

# Driver parameters default to the original intro_overhead recording;
# each gate overrides what its baseline was recorded with.
if(NOT DEFINED TXNS)
    set(TXNS 120)
endif()
if(NOT DEFINED KEYS)
    set(KEYS 64)
endif()
if(NOT DEFINED SEED)
    set(SEED 7)
endif()

if(NOT EXISTS "${BASELINE}")
    message(FATAL_ERROR "bench_baseline: baseline ${BASELINE} missing")
endif()

file(MAKE_DIRECTORY "${WORKDIR}")
get_filename_component(artifact "${BASELINE}" NAME)
set(candidate "${WORKDIR}/${artifact}")

# Must match the parameters recorded in the baseline artifact.
execute_process(
    COMMAND "${BENCH}" --txns ${TXNS} --keys ${KEYS} --seed ${SEED}
            --json "${candidate}"
    RESULT_VARIABLE bench_rc
    OUTPUT_VARIABLE bench_out
    ERROR_VARIABLE bench_err)
if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR
        "bench_baseline: driver failed (rc=${bench_rc})\n"
        "${bench_out}\n${bench_err}")
endif()

execute_process(
    COMMAND "${REPORT}" --check "${candidate}"
    RESULT_VARIABLE check_rc
    OUTPUT_VARIABLE check_out
    ERROR_VARIABLE check_err)
if(NOT check_rc EQUAL 0)
    message(FATAL_ERROR
        "bench_baseline: invalid artifact (rc=${check_rc})\n"
        "${check_out}\n${check_err}")
endif()

execute_process(
    COMMAND "${REPORT}" "${BASELINE}" "${candidate}"
            --threshold 2
    RESULT_VARIABLE diff_rc
    OUTPUT_VARIABLE diff_out
    ERROR_VARIABLE diff_err)

# Per-stage stall-cycle delta table (informational): artifacts that
# carry stage-cycle series get a breakdown of where the drift is, so
# a threshold failure names the stage that moved.
execute_process(
    COMMAND "${REPORT}" --diff "${BASELINE}" "${candidate}"
    RESULT_VARIABLE stage_rc
    OUTPUT_VARIABLE stage_out
    ERROR_VARIABLE stage_err)
if(stage_rc EQUAL 0)
    set(stage_table "\nstage delta vs baseline:\n${stage_out}")
else()
    set(stage_table "")
endif()

if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
        "bench_baseline: regression vs recorded baseline "
        "(rc=${diff_rc})\n${diff_out}\n${diff_err}${stage_table}\n"
        "If the change is intentional, re-record the baseline (see "
        "header of bench_baseline.cmake).")
endif()

message(STATUS "bench_baseline: OK\n${diff_out}${stage_table}")
