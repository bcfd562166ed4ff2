# A capped trace cache keeps a stable set instead of thrashing. Run
# `branchlab tables` three times over one cache directory whose cap is
# below the suite's total: runs 2 and 3 must hit the cache at least
# once, the directory must be at or under the cap after every run, and
# every run's tables must match an uncached run's byte for byte.
#
#   cmake -DBRANCHLAB=<branchlab> -DDIR=<scratch dir> -DCAP=<bytes>
#         -DRUNS=<n> -P check_capped_cache.cmake

file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
set(cache "${DIR}/cache")
set(snapshot "${DIR}/telemetry.json")

execute_process(COMMAND "${BRANCHLAB}" tables --runs ${RUNS} --jobs 1
                RESULT_VARIABLE status
                OUTPUT_VARIABLE reference
                ERROR_VARIABLE err)
if(NOT status STREQUAL "0")
    message(FATAL_ERROR "uncached branchlab tables failed (${status}):\n"
                        "${err}")
endif()

foreach(run 1 2 3)
    file(REMOVE "${snapshot}")
    execute_process(COMMAND "${BRANCHLAB}" tables --runs ${RUNS} --jobs 1
                            --trace-cache "${cache}"
                            --trace-cache-max-bytes ${CAP}
                            --telemetry "${snapshot}"
                    RESULT_VARIABLE status
                    OUTPUT_VARIABLE tables
                    ERROR_VARIABLE err)
    if(NOT status STREQUAL "0")
        message(FATAL_ERROR "run ${run} failed (${status}):\n${err}")
    endif()
    if(NOT tables STREQUAL reference)
        message(FATAL_ERROR "run ${run}'s tables differ from the uncached "
                            "run's:\n${tables}")
    endif()

    file(READ "${snapshot}" json)
    string(JSON hits ERROR_VARIABLE missing
           GET "${json}" counters trace_cache.hits)
    if(missing)
        set(hits 0)
    endif()
    if(run GREATER 1 AND hits LESS 1)
        message(FATAL_ERROR "run ${run} hit no entry of the capped cache")
    endif()

    file(GLOB_RECURSE files "${cache}/*")
    set(total 0)
    foreach(file IN LISTS files)
        file(SIZE "${file}" size)
        math(EXPR total "${total} + ${size}")
    endforeach()
    if(total GREATER CAP)
        message(FATAL_ERROR "run ${run} left ${total} bytes over the "
                            "${CAP}-byte cap")
    endif()
    message(STATUS "run ${run}: ${hits} hit(s), ${total} bytes cached")
endforeach()
file(REMOVE_RECURSE "${DIR}")
