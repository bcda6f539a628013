# Runs a command and fails unless it exits with the code EXPECT. The CLI
# exit-code contract tests use it where WILL_FAIL (any nonzero) is too
# loose: a usage error must exit 2, not crash or fail a gate.
#
#   cmake -DEXPECT=2 -P expect_exit.cmake <program> [args...]
set(command)
set(collect FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} MATCHES "expect_exit\\.cmake$")
    set(collect TRUE)
  endif()
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE code
                OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code STREQUAL EXPECT)
  message(FATAL_ERROR "'${command}' exited ${code}, expected ${EXPECT}\n${err}")
endif()
