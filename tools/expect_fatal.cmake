# Run one command and pass only when it ends the way a bad option
# does: exit status 1 and a "fatal:" diagnostic, never an uncaught
# exception ("terminate called", SIGABRT).
#
#   cmake -DCOMMAND="prog;arg;..." -P expect_fatal.cmake

execute_process(COMMAND ${COMMAND}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 60)
set(text "${out}${err}")
if(NOT status STREQUAL "1")
    message(FATAL_ERROR "expected exit status 1, got '${status}':\n${text}")
endif()
if(NOT text MATCHES "fatal: ")
    message(FATAL_ERROR "no fatal: line:\n${text}")
endif()
if(text MATCHES "terminate called")
    message(FATAL_ERROR "uncaught exception:\n${text}")
endif()
