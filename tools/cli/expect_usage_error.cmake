# Runs the command given after "--" and passes only when it exits with
# status 2 and its stderr contains MESSAGE (ctest's own properties can
# match output or any nonzero status, not one status).
#
#   cmake "-DMESSAGE=unknown flag --sovler " -P expect_usage_error.cmake -- rpcg-cli solve ...
set(command "")
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command OR NOT DEFINED MESSAGE)
  message(FATAL_ERROR "usage: cmake -DMESSAGE=text -P expect_usage_error.cmake -- COMMAND...")
endif()

execute_process(COMMAND ${command}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got ${status}\nstdout:\n${out}\nstderr:\n${err}")
endif()
string(FIND "${err}" "${MESSAGE}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not contain '${MESSAGE}':\n${err}")
endif()
