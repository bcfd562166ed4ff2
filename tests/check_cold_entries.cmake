# Record every workload cold into an empty trace cache and hold each
# entry's bytes to a committed list of SHA-256 sums ("<sum>  <path>"
# per line, paths relative to the cache, sorted), and the printed
# tables to the committed sum in <tables> (sha256sum's format: `cd` to
# a saved copy of the output and `sha256sum -c` checks it by hand).
#
#   cmake -DBRANCHLAB=<branchlab> -DDIR=<scratch dir> -DLIST=<list>
#         -DTABLES=<tables sum> -DRUNS=<n> -P check_cold_entries.cmake

file(REMOVE_RECURSE "${DIR}")
execute_process(COMMAND "${BRANCHLAB}" tables --runs ${RUNS} --jobs 1
                        --trace-cache "${DIR}"
                RESULT_VARIABLE status
                OUTPUT_VARIABLE tables
                ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
    message(FATAL_ERROR "branchlab tables failed (${status}):\n${err}")
endif()

string(SHA256 tables_sum "${tables}")
file(READ "${TABLES}" tables_line)
string(SUBSTRING "${tables_line}" 0 64 tables_expected)
if(NOT tables_sum STREQUAL tables_expected)
    message(FATAL_ERROR "branchlab tables output differs from ${TABLES} "
                        "(sum ${tables_sum}):\n${tables}")
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
