# End-to-end observability smoke test (ctest tier2).
#
# Runs one short simulation with --trace, --stats and --stats-json,
# checks the run reported its host cost, then validates both artifacts
# with dolos_report --check and diffs the stats artifact against
# itself (which must report zero regressions).
#
# Invoked as:
#   cmake -DSIM=<dolos-sim> -DREPORT=<dolos_report> -DWORKDIR=<dir>
#         -P trace_smoke.cmake

foreach(var SIM REPORT WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "trace_smoke: ${var} not set")
    endif()
endforeach()

file(MAKE_DIRECTORY "${WORKDIR}")
set(trace_file "${WORKDIR}/trace.json")
set(stats_file "${WORKDIR}/stats.json")

execute_process(
    COMMAND "${SIM}" --workload hashmap --mode full_wpq
            --txns 50 --keys 64
            --trace "${trace_file}" --stats --stats-json "${stats_file}"
    RESULT_VARIABLE sim_rc
    OUTPUT_VARIABLE sim_out
    ERROR_VARIABLE sim_err)
if(NOT sim_rc EQUAL 0)
    message(FATAL_ERROR
        "trace_smoke: simulation failed (rc=${sim_rc})\n"
        "${sim_out}\n${sim_err}")
endif()

string(FIND "${sim_out}" "host time" has_host)
if(has_host EQUAL -1)
    message(FATAL_ERROR
        "trace_smoke: no host time line in --stats output:\n${sim_out}")
endif()

# Either the attribution table (profiler compiled in) or the explicit
# compiled-out notice must be present — silence means the report path
# is broken.
string(FIND "${sim_out}" "Self-profile (exclusive host time)" has_attr)
string(FIND "${sim_out}" "self-profiler compiled out" has_notice)
if(has_attr EQUAL -1 AND has_notice EQUAL -1)
    message(FATAL_ERROR
        "trace_smoke: neither attribution table nor compiled-out "
        "notice in --stats output:\n${sim_out}")
endif()

file(READ "${stats_file}" stats_json)
string(FIND "${stats_json}" "\"host\":{\"seconds\":" has_host_json)
if(has_host_json EQUAL -1)
    message(FATAL_ERROR
        "trace_smoke: no host object in --stats-json artifact")
endif()

foreach(artifact "${trace_file}" "${stats_file}")
    execute_process(
        COMMAND "${REPORT}" --check "${artifact}"
        RESULT_VARIABLE check_rc
        OUTPUT_VARIABLE check_out
        ERROR_VARIABLE check_err)
    if(NOT check_rc EQUAL 0)
        message(FATAL_ERROR
            "trace_smoke: invalid JSON artifact ${artifact} "
            "(rc=${check_rc})\n${check_out}\n${check_err}")
    endif()
endforeach()

# A self-diff must be regression-free: exercises the compare path.
execute_process(
    COMMAND "${REPORT}" "${stats_file}" "${stats_file}"
    RESULT_VARIABLE diff_rc
    OUTPUT_VARIABLE diff_out
    ERROR_VARIABLE diff_err)
if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
        "trace_smoke: self-diff reported regressions (rc=${diff_rc})\n"
        "${diff_out}\n${diff_err}")
endif()

message(STATUS "trace_smoke: OK")
