# Runs the command after `--` and fails unless it exits with status 2, the
# status the drivers use for a malformed command line:
#   cmake -P expect_usage_error.cmake -- <program> [args...]
cmake_minimum_required(VERSION 3.25)

set(command)
set(collect OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(collect ON)
  endif()
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE status)
if(NOT status STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${status}'")
endif()
