# Runs ${CMD} ${ARGS} and succeeds only when the run exits nonzero and its
# last output line reports "correct": false (the correctness gate tripped).
execute_process(COMMAND ${CMD} ${ARGS}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(code EQUAL 0)
  message(FATAL_ERROR "planted failure was not detected (exit 0)\n${out}")
endif()
if(NOT out MATCHES "\"correct\": false")
  message(FATAL_ERROR "run failed without reporting correct=false (exit ${code})\n${out}\n${err}")
endif()
message(STATUS "gate tripped as expected (exit ${code})")
