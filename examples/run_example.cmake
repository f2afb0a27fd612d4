# Run one example as a ctest check: `cmake -DEXAMPLE=<binary>
# -DEXPECT=<text> -P run_example.cmake` passes when the example exits 0
# and prints EXPECT (its self-check line). A PASS_REGULAR_EXPRESSION
# alone would ignore the exit status.
execute_process(COMMAND ${EXAMPLE} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err)
message("${out}${err}")
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${EXAMPLE} exited with status ${status}")
endif()
string(FIND "${out}" "${EXPECT}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${EXAMPLE} did not print \"${EXPECT}\"")
endif()
