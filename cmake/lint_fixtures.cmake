# ctest `lint_fixtures`: prove dolos_lint flags every planted
# violation in tests/lint_fixtures/ (exit code 1 + the expected
# diagnostic) and still runs clean over the real tree (exit code 0).
#
# Inputs: -DLINT=<dolos_lint binary> -DSOURCE_DIR=<repo root>

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
endfunction()

expect_flag(untagged_member.hh 1
    "member 'untagged' of state class 'FixtureUntagged' lacks a")
expect_flag(duplicate_tag.hh 1
    "field 'field' annotated twice")
expect_flag(unknown_field_tag.hh 1
    "tag names unknown member 'ghost'")
expect_flag(missing_marker.hh 1
    "crash-relevant class 'NvmDevice' has no DOLOS_STATE_CLASS marker")
expect_flag(kind_mismatch.cc 1
    "registers 'cursor' as persistent but the header tags it volatile")
expect_flag(eadr_kind_mismatch.cc 1
    "registers 'lines' as persistent but the header tags it eadr-flushed")
expect_flag(missing_manifest_field.cc 1
    "does not register tagged field 'left_out'")
expect_flag(missing_manifest.cc 1
    "state class 'FixtureNoManifest' has no stateManifest() definition")
expect_flag(manifest_dup_field.cc 1
    "registers 'field' twice")
expect_flag(dup_stat_name.cc 1
    "stat 'hits' registered twice on 'stats_'")
# 3 planted mismatches; the adjacent correct call must not be flagged,
# and the suppressed malloc in raw_alloc.cc must not be either.
expect_flag(format_mismatch.cc 3
    "consumes 2 argument(s) but 1 provided")
expect_flag(raw_alloc.cc 1
    "raw 'new'")
# 2 planted (namespace global + static local); the annotated,
# const/constexpr, and thread_local neighbors must not be flagged.
expect_flag(thread_shared_global.cc 2
    "namespace-scope mutable variable 'unannotated_counter' lacks a")
expect_flag(crash_orphan_step.cc 1
    "registered step 'OrphanStep' has no DOLOS_CRASH_POINT hook site")
expect_flag(crash_unknown_step.cc 1
    "DOLOS_CRASH_POINT names unregistered step 'GhostStep'")
expect_flag(crash_hook_distance.cc 1
    "mutation 'writeCiphertext' in drain/flush function 'drainEntry'")
# 1 planted call; the same-named member call and the suppressed call
# must not be flagged.
expect_flag(determinism_rand.cc 1
    "call to 'rand()' is not seed-reproducible")
expect_flag(determinism_unordered.cc 1
    "range-for over unordered container 'dirty'")

# The real tree must be clean.
execute_process(COMMAND ${LINT} ${SOURCE_DIR}/src ${SOURCE_DIR}/tools
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "real tree should lint clean, got exit ${rc}\n${out}${err}")
endif()
message(STATUS "real tree: clean\n${out}")
