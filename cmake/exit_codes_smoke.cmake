# Exit-code contract smoke test (ctest tier2).
#
# The documented dolos_sim / dolos_torture exit codes (see
# src/sim/exit_codes.hh and docs/verification.md):
#
#   0  clean, verified run
#   1  verification / oracle failure
#   2  usage or configuration error
#   3  integrity attack detected
#   4  unrecoverable media fault (quarantine)
#
# This script drives each path end to end and also validates the
# --damage-json artifact with dolos_report --check.
#
# Invoked as:
#   cmake -DSIM=<dolos-sim> -DTORTURE=<dolos_torture>
#         -DREPORT=<dolos_report>
#         -DBENCH=<any experiment driver> -DWORKDIR=<dir>
#         -P exit_codes_smoke.cmake

foreach(var SIM TORTURE REPORT BENCH WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "exit_codes_smoke: ${var} not set")
    endif()
endforeach()

file(MAKE_DIRECTORY "${WORKDIR}")

function(expect_rc expected)
    execute_process(
        COMMAND ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rc EQUAL ${expected})
        message(FATAL_ERROR
            "exit_codes_smoke: expected rc=${expected}, got rc=${rc} "
            "for: ${ARGN}\n${out}\n${err}")
    endif()
endfunction()

# 0: clean verified run.
expect_rc(0 "${SIM}" --workload hashmap --mode dolos-partial
            --txns 40 --keys 64)

# 2: usage error (unknown mode) — rejected, not defaulted.
expect_rc(2 "${SIM}" --mode not-a-mode)

# 2: invalid configuration (degenerate WPQ) — rejected, not clamped.
expect_rc(2 "${SIM}" --wpq 1 --txns 10)

# A one-entry ADR budget leaves Partial no usable entry, but a mode
# that does not use Partial's entries still runs.
expect_rc(0 "${SIM}" --wpq 1 --mode baseline --txns 10)
execute_process(
    COMMAND "${SIM}" --wpq 1 --mode dolos-partial --txns 10
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "zero usable entries")
    message(FATAL_ERROR
        "exit_codes_smoke: --wpq 1 --mode dolos-partial: expected rc=2 "
        "and 'zero usable entries', got rc=${rc}\n${err}")
endif()

# 2: a transaction size the workload's fixed regions cannot hold —
# the 64 KB undo log, or the persistent heap — is a configuration
# error, not an abort.
function(expect_config_error pattern)
    execute_process(
        COMMAND ${ARGN}
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 2 OR NOT err MATCHES "${pattern}")
        message(FATAL_ERROR
            "exit_codes_smoke: expected rc=2 and '${pattern}', got "
            "rc=${rc} for: ${ARGN}\n${err}")
    endif()
endfunction()
expect_config_error("64 KB undo log" "${SIM}" --workload hashmap
                    --tx-size 65536 --txns 2)
expect_config_error("64 KB undo log" "${SIM}" --workload nstore-ycsb
                    --tx-size 65536 --txns 2)
expect_config_error("heap limit" "${SIM}" --workload redis
                    --tx-size 4096 --txns 2)

# 3: injected integrity attack raises the alarm.
expect_rc(3 "${SIM}" --workload hashmap --mode dolos-partial
            --txns 40 --keys 64 --inject-fault data-flip)

# --inject-fault takes only kinds it injects (2 for none). The
# crash-path kinds are armed before the run: the crash tears the ADR
# dump, which Mi-SU authentication catches (3), or the dropped flush
# loses committed data the structural verifier catches (1).
expect_rc(2 "${SIM}" --inject-fault none --txns 10)
expect_rc(3 "${SIM}" --workload hashmap --mode dolos-partial
            --txns 40 --keys 64 --crash-at 100
            --inject-fault torn-adr-dump)
expect_rc(1 "${SIM}" --workload hashmap --mode dolos-partial
            --txns 40 --keys 64 --crash-at 300
            --inject-fault dropped-clwb)

# 4: unhealable media fault degrades gracefully (quarantine, no
#    abort) and emits a structured damage report.
set(damage "${WORKDIR}/damage.json")
expect_rc(4 "${SIM}" --workload hashmap --mode dolos-partial
            --txns 40 --keys 64 --media-fault stuck
            --damage-json "${damage}")
if(NOT EXISTS "${damage}")
    message(FATAL_ERROR "exit_codes_smoke: damage report not written")
endif()
expect_rc(0 "${REPORT}" --check "${damage}")
file(READ "${damage}" damage_text)
if(NOT damage_text MATCHES "\"unrecoverableMedia\":true")
    message(FATAL_ERROR
        "exit_codes_smoke: damage report lacks the quarantine flag:\n"
        "${damage_text}")
endif()

# 4: a raw write failure in a mode that skips the Ma-SU drain: the
#    device's retries are counted once, in the media object too.
set(raw_damage "${WORKDIR}/raw_damage.json")
expect_rc(4 "${SIM}" --workload hashmap --mode baseline
            --txns 40 --keys 64 --inject-fault media-write-fail
            --damage-json "${raw_damage}")
expect_rc(0 "${REPORT}" --check "${raw_damage}")
file(READ "${raw_damage}" raw_damage_text)
if(NOT raw_damage_text MATCHES "\"media\":{[^}]*\"retries\":3[,}]")
    message(FATAL_ERROR
        "exit_codes_smoke: media object does not count the 3 device "
        "retries:\n${raw_damage_text}")
endif()

# 4: a worn counter frame with no spare row left is retired like a
#    worn tree frame: its page lives on-chip, so no data cascades,
#    but the frame itself is quarantined.
set(ctr_damage "${WORKDIR}/counter_no_spare.json")
expect_rc(4 "${SIM}" --workload hashmap --mode dolos-partial
            --txns 40 --keys 64 --media-fault stuck
            --media-region counter --spares 0
            --damage-json "${ctr_damage}")
expect_rc(0 "${REPORT}" --check "${ctr_damage}")
file(READ "${ctr_damage}" ctr_damage_text)
if(NOT ctr_damage_text MATCHES
       "\"quarantined\":\\[[^]]*\"region\":\"counter\"")
    message(FATAL_ERROR
        "exit_codes_smoke: the worn counter frame is not quarantined:\n"
        "${ctr_damage_text}")
endif()

# 0: a transient fault heals through retry — clean exit, no report.
expect_rc(0 "${SIM}" --workload hashmap --mode dolos-partial
            --txns 40 --keys 64 --media-fault transient)

# 0: with a scrub interval, a metadata fault strikes before the
# measured transactions, so the scrubber meets and repairs it. The
# fault is on a MAC frame: the run stores those with every write,
# while counter and tree frames reach NVM only when a metadata cache
# evicts them, which no run this short does.
execute_process(
    COMMAND "${SIM}" --workload hashmap --mode dolos-partial
            --txns 40 --keys 64 --media-fault stuck --media-region mac
            --scrub-interval 50
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "scrub: [0-9]+ passes, [1-9][0-9]* repairs")
    message(FATAL_ERROR
        "exit_codes_smoke: --scrub-interval 50 with a stuck MAC frame: "
        "expected rc=0 and at least one scrub repair, got rc=${rc}\n"
        "${out}\n${err}")
endif()

# Torture driver speaks the same contract.
expect_rc(0 "${TORTURE}" --replay w:1:7,f:1,s,c)
expect_rc(2 "${TORTURE}" --mode not-a-mode)
expect_rc(2 "${TORTURE}" --replay zz:1)
expect_rc(4 "${TORTURE}" --replay w:3:7,x:3:9,f:3,s,c)
expect_rc(1 "${TORTURE}" --mode dolos-partial --plant-bug drop-clwb:0
            --replay w:5:9,f:5,s,c)

# One-fault episodes: the same flip is caught by the Mi-SU/Ma-SU
# (contract held, 0) and corrupts silently without a security engine
# (contract violated, 1).
expect_rc(0 "${TORTURE}" --mode dolos-partial --workload hashmap
            --seed 123 --fault data-flip)
expect_rc(1 "${TORTURE}" --mode ideal --workload hashmap
            --seed 123 --fault data-flip)

# 2: malformed numbers are usage errors, never a silent prefix parse.
expect_rc(2 "${SIM}" --txns 10x)
expect_rc(2 "${TORTURE}" --campaign abc)
expect_rc(2 "${TORTURE}" --jobs 2x)
expect_rc(2 "${TORTURE}" --seed -1)
expect_rc(2 "${TORTURE}" --plant-bug drop-clwb:3x --replay s)
expect_rc(2 "${TORTURE}" --fault none --crash-op 5x)
expect_rc(2 "${TORTURE}" --faults 2 --jobs " 4")

# 2: exactly one action per run, and no flag another action would
#    silently drop.
expect_rc(2 "${TORTURE}" --seed 3)
expect_rc(2 "${TORTURE}" --sweep --replay s)
expect_rc(2 "${TORTURE}" --campaign 2 --replay s)
expect_rc(2 "${TORTURE}" --faults 2 --fault data-flip)
expect_rc(2 "${TORTURE}" --campaign 2 --points microstep)
expect_rc(2 "${TORTURE}" --replay s --meta-faults)
expect_rc(2 "${TORTURE}" --faults 2 --crash-op 5)
expect_rc(2 "${TORTURE}" --faults 2 --mode dolos-full)

# 2: unknown --tree / --crash-scheme values are rejected, not run as
#    the default scheme.
expect_rc(2 "${SIM}" --tree lazzy --txns 10)
expect_rc(2 "${SIM}" --crash-scheme osirs --txns 10)

# 2: --opt-knobs takes exactly "all" or "none" — no retired lever
#    names or other spellings — in every tool (the drivers exit 1).
expect_rc(2 "${SIM}" --opt-knobs bmt-pipeline --txns 10)
expect_rc(2 "${TORTURE}" --campaign 1 --opt-knobs everything)
expect_rc(1 "${BENCH}" --opt-knobs x)

# A flag without its value is a usage error in every tool; the report
# tool and the experiment drivers exit 1 on usage errors.
expect_rc(2 "${SIM}" --txns)
expect_rc(2 "${TORTURE}" --seed)
expect_rc(2 "${TORTURE}" --fault data-flip --mode)
expect_rc(1 "${REPORT}" --check)
expect_rc(1 "${BENCH}" --keys)
expect_rc(1 "${BENCH}" --txns 3x)

# 1: a rate that halves is a regression, though its name says
#    "cycles".
file(WRITE "${WORKDIR}/rate_old.json"
     "{\"results\":{\"hashmap.simCyclesPerSec\":400000000}}\n")
file(WRITE "${WORKDIR}/rate_new.json"
     "{\"results\":{\"hashmap.simCyclesPerSec\":200000000}}\n")
expect_rc(1 "${REPORT}" "${WORKDIR}/rate_old.json"
            "${WORKDIR}/rate_new.json")

message(STATUS "exit_codes_smoke: OK")
