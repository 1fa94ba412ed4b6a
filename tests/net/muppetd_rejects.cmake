# Runs muppetd on a cluster config it must refuse and checks that it exits
# with status 2 and names the offending field and value on stderr.
#
#   cmake -DMUPPETD=<muppetd> -DCONFIG=<config.json> -DFIELD=<field>
#         -DVALUE=<value> -P muppetd_rejects.cmake
execute_process(
  COMMAND "${MUPPETD}" "--config=${CONFIG}" --node=0 --run-seconds=1
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 30)
if(NOT code STREQUAL "2")
  message(FATAL_ERROR
          "muppetd exited with '${code}', expected 2\n"
          "stdout:\n${out}\nstderr:\n${err}")
endif()
set(expected "unknown ${FIELD} \"${VALUE}\"")
string(FIND "${err}" "${expected}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name ${expected}:\n${err}")
endif()
