# Run one command that exports its telemetry snapshot to SNAPSHOT and
# pass only when the file exists and its counter COUNTER is nonzero.
#
#   cmake -DCOMMAND="prog;arg;..." -DSNAPSHOT=<file> -DCOUNTER=<name>
#         -P expect_counter.cmake

file(REMOVE "${SNAPSHOT}")
execute_process(COMMAND ${COMMAND}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err
                TIMEOUT 120)
if(NOT status STREQUAL "0")
    message(FATAL_ERROR "command failed (${status}):\n${err}")
endif()
if(NOT EXISTS "${SNAPSHOT}")
    message(FATAL_ERROR "no telemetry snapshot at ${SNAPSHOT}")
endif()
file(READ "${SNAPSHOT}" json)
string(JSON value ERROR_VARIABLE missing GET "${json}" counters "${COUNTER}")
if(missing OR value EQUAL 0)
    message(FATAL_ERROR "counter ${COUNTER} is not set in ${SNAPSHOT}:\n"
                        "${json}")
endif()
file(REMOVE "${SNAPSHOT}")
