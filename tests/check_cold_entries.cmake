# Record every workload cold into an empty trace cache and hold each
# entry's bytes to a committed list of SHA-256 sums ("<sum>  <path>"
# per line, paths relative to the cache, sorted).
#
#   cmake -DBRANCHLAB=<branchlab> -DDIR=<scratch dir> -DLIST=<list>
#         -DRUNS=<n> -P check_cold_entries.cmake

file(REMOVE_RECURSE "${DIR}")
execute_process(COMMAND "${BRANCHLAB}" tables --runs ${RUNS} --jobs 1
                        --trace-cache "${DIR}"
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
    message(FATAL_ERROR "branchlab tables failed (${status}):\n${err}")
endif()

file(GLOB_RECURSE entries RELATIVE "${DIR}" "${DIR}/*.bltc")
list(SORT entries)
set(actual "")
foreach(entry IN LISTS entries)
    file(SHA256 "${DIR}/${entry}" sum)
    string(APPEND actual "${sum}  ${entry}\n")
endforeach()
file(READ "${LIST}" expected)
if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "cold trace-cache entries differ from ${LIST}:\n"
                        "expected:\n${expected}actual:\n${actual}")
endif()
file(REMOVE_RECURSE "${DIR}")
