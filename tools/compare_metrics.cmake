# Runs `${XRING} ${ARGS} --metrics ${METRICS}` and fails unless every
# `"name": value` line of ${EXPECTED} appears verbatim as a whole entry of
# the metrics JSON it writes. Usage (from add_test):
#   cmake -DXRING=<exe> "-DARGS=synth --nodes 8" -DMETRICS=<out.json>
#         -DEXPECTED=<file> -P compare_metrics.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE "${METRICS}")
execute_process(COMMAND "${XRING}" ${args} --metrics "${METRICS}"
                OUTPUT_QUIET ERROR_QUIET RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "xring ${ARGS} exited with status ${status}")
endif()
file(READ "${METRICS}" actual)
file(STRINGS "${EXPECTED}" pairs)
set(missing "")
foreach(pair IN LISTS pairs)
  # metrics_json writes each entry as `\n  "name": value` followed by `,`
  # or by the closing `\n}`.
  string(FIND "${actual}" "\n  ${pair}," with_comma)
  string(FIND "${actual}" "\n  ${pair}\n" last_entry)
  if(with_comma EQUAL -1 AND last_entry EQUAL -1)
    string(APPEND missing "  ${pair}\n")
  endif()
endforeach()
if(NOT missing STREQUAL "")
  message(FATAL_ERROR "xring ${ARGS}: ${METRICS} lacks these entries of "
                      "${EXPECTED}:\n${missing}--- actual ---\n${actual}")
endif()
