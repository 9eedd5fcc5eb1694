# Runs `${XRING} ${ARGS}` and fails unless its standard output equals the
# file ${EXPECTED} byte for byte. Usage (from add_test):
#   cmake -DXRING=<exe> "-DARGS=synth --nodes 8 --csv" -DEXPECTED=<file>
#         -P compare_output.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${XRING}" ${args}
                OUTPUT_VARIABLE actual RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "xring ${ARGS} exited with status ${status}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "xring ${ARGS}: output differs from ${EXPECTED}\n"
                      "--- actual ---\n${actual}")
endif()
