# Runs EXE with ARGS (one space-separated string) and fails unless it exits
# with exactly EXPECTED. A crash or abort is reported as a string, never as
# a number, so it fails too.
#
#   cmake -DEXE=<binary> "-DARGS=<args>" -DEXPECTED=<code> -P expect_exit_code.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args} RESULT_VARIABLE rc)
if(NOT "${rc}" STREQUAL "${EXPECTED}")
  message(FATAL_ERROR "${EXE} ${ARGS}: exit ${rc}, expected ${EXPECTED}")
endif()
