# ctest `lint_fixtures`: prove dolos_lint flags every planted
# violation in tests/lint_fixtures/ (exit code 1 + the expected
# diagnostic), that every fixture there is checked by exactly one
# expect_flag, and that the real tree still lints clean (exit code 0).
#
# Inputs: -DLINT=<dolos_lint binary> -DSOURCE_DIR=<repo root>

cmake_policy(SET CMP0057 NEW) # IN_LIST (script mode sets no policies)

if(NOT LINT OR NOT SOURCE_DIR)
    message(FATAL_ERROR "need -DLINT=... -DSOURCE_DIR=...")
endif()
set(FIXTURES ${SOURCE_DIR}/tests/lint_fixtures)

# expect_flag(<fixture> <violations> <expected substring>)
function(expect_flag file count expected)
    execute_process(COMMAND ${LINT} ${FIXTURES}/${file}
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 1)
        message(FATAL_ERROR
            "${file}: expected exit 1, got ${rc}\n${out}${err}")
    endif()
    string(FIND "${out}" "${expected}" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR
            "${file}: missing expected diagnostic\n"
            "  wanted: ${expected}\n  got:\n${out}")
    endif()
    string(FIND "${out}" "${count} violation(s)" pos)
    if(pos EQUAL -1)
        message(FATAL_ERROR
            "${file}: expected exactly ${count} violation(s)\n${out}")
    endif()
    message(STATUS "${file}: flagged as planted")
    set_property(GLOBAL APPEND PROPERTY CHECKED_FIXTURES ${file})
endfunction()

expect_flag(missing_manifest_field.cc 1
    "data member 'left_out' of state class 'FixtureMissingField' is not")
# The methods, statics, types and friend beside the planted member
# must not be flagged.
expect_flag(unregistered_member.cc 1
    "data member 'pending' of state class 'FixtureUnregistered' is not")
expect_flag(manifest_unknown_field.cc 1
    "registers 'limit', which is not a data member of 'FixtureUnknownField'")
expect_flag(manifest_dup_field.cc 1
    "registers 'field' twice")
expect_flag(required_class_no_manifest.hh 1
    "crash-relevant class 'NvmDevice' has no stateManifest() definition")
# The suppressed malloc must not be flagged.
expect_flag(raw_alloc.cc 1
    "raw 'new'")
# 2 planted (namespace global + static local); the annotated,
# const/constexpr, and thread_local neighbors must not be flagged.
expect_flag(thread_shared_global.cc 2
    "namespace-scope mutable variable 'unannotated_counter' lacks a")
expect_flag(crash_orphan_step.cc 1
    "registered step 'OrphanStep' has no DOLOS_CRASH_POINT hook site")
expect_flag(crash_hook_distance.cc 1
    "mutation 'writeCiphertext' in drain/flush function 'drainEntry'")
# 1 planted call; the same-named member call and the suppressed call
# must not be flagged.
expect_flag(determinism_rand.cc 1
    "call to 'rand()' is not seed-reproducible")
expect_flag(determinism_unordered.cc 1
    "range-for over unordered container 'dirty'")

# Every fixture is checked by exactly one expect_flag above, so a
# fixture whose check was deleted (or a new one) cannot sit unchecked.
get_property(checked GLOBAL PROPERTY CHECKED_FIXTURES)
set(unique ${checked})
list(REMOVE_DUPLICATES unique)
list(LENGTH checked n_checked)
list(LENGTH unique n_unique)
if(NOT n_checked EQUAL n_unique)
    message(FATAL_ERROR "a fixture is named by more than one "
        "expect_flag: ${checked}")
endif()
file(GLOB_RECURSE planted RELATIVE ${FIXTURES}
    ${FIXTURES}/*.cc ${FIXTURES}/*.hh)
foreach(f IN LISTS planted)
    if(NOT f IN_LIST checked)
        message(FATAL_ERROR
            "${f}: fixture is not checked by any expect_flag")
    endif()
endforeach()

# The real tree must be clean.
execute_process(COMMAND ${LINT} ${SOURCE_DIR}/src ${SOURCE_DIR}/tools
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "real tree should lint clean, got exit ${rc}\n${out}${err}")
endif()
message(STATUS "real tree: clean\n${out}")
