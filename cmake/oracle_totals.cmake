# Pinned sweep oracle totals (ctest tier1).
#
# Runs one crash sweep and requires exit 0 and the exact
# "sweep oracle: ..." totals line. Every point passing is not enough:
# an oracle that scans fewer blocks or files committed bytes as
# in-flight would pass every point, but not its pinned totals.
#
# Invoked as:
#   cmake -DTORTURE=<dolos_torture> -DARGS=<;-list of sweep flags>
#         -DEXPECT=<the totals line> -P oracle_totals.cmake

foreach(var TORTURE ARGS EXPECT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "oracle_totals: ${var} not set")
    endif()
endforeach()

execute_process(
    COMMAND "${TORTURE}" --sweep ${ARGS}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "oracle_totals: expected rc=0, got rc=${rc} for: --sweep ${ARGS}"
        "\n${out}\n${err}")
endif()
string(FIND "${out}" "\n${EXPECT}\n" pos)
if(pos EQUAL -1)
    message(FATAL_ERROR
        "oracle_totals: expected the line\n  ${EXPECT}\nin:\n${out}")
endif()
message(STATUS "oracle_totals: ${EXPECT}")
