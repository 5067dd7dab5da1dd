# Runs one malformed command line of a command-line tool (nse_cli,
# nse_audit, schedule_viz) and requires exit status 2 with the usage text in its
# output:
#
#   cmake -P expect_usage.cmake -- <tool> <args...>
set(cmd)
set(seen_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(seen_dashes)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(seen_dashes TRUE)
    endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc STREQUAL "2" OR NOT out MATCHES "usage:")
    message(FATAL_ERROR "want exit 2 and usage, got exit ${rc}:\n${out}")
endif()
