# perfbench lane (ctest tier2): configure and build the repository
# benchmark (perfbench/, its own CMake package compiled straight from
# src/) and run its crash-sweep workload for one second, untraced and
# traced. Both runs must exit 0 and end stdout with one JSON object,
# so a src/ change that breaks the benchmark's build or its calls into
# the library fails here instead of in a benchmark run.
#
# Invoked as:
#   cmake -DSOURCE_DIR=<repo root> -DWORKDIR=<dir> -P perfbench_lane.cmake

foreach(var SOURCE_DIR WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "perfbench_lane: ${var} not set")
    endif()
endforeach()

function(step what)
    execute_process(
        COMMAND ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "perfbench_lane: ${what} failed (rc=${rc})\n${out}\n${err}")
    endif()
    set(out "${out}" PARENT_SCOPE)
endfunction()

set(build "${WORKDIR}/build")
file(MAKE_DIRECTORY "${build}")
cmake_host_system_information(RESULT jobs QUERY NUMBER_OF_LOGICAL_CORES)
if(jobs GREATER 4)
    set(jobs 4)
endif()

step(configure "${CMAKE_COMMAND}" -S "${SOURCE_DIR}/perfbench"
     -B "${build}" -DCMAKE_BUILD_TYPE=Release)
step(build "${CMAKE_COMMAND}" --build "${build}" --target perfbench
     -j ${jobs})

foreach(trace 0 1)
    step("crash-sweep --trace ${trace}" "${build}/perfbench"
         --workload crash-sweep --seed 1 --seconds 1 --trace ${trace})
    string(STRIP "${out}" out)
    string(REGEX REPLACE ".*\n" "" last "${out}")
    string(JSON metrics ERROR_VARIABLE json_err GET "${last}" metrics)
    if(json_err)
        message(FATAL_ERROR
            "perfbench_lane: --trace ${trace}: last stdout line is not "
            "a JSON result with metrics (${json_err}):\n${last}")
    endif()
endforeach()

message(STATUS "perfbench_lane: OK")
