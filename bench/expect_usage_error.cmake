# ctest helper: run BIN with a flag no bench declares and pass only if
# it exits 64 (EX_USAGE) and names the flags it accepts.
#   cmake -DBIN=<bench> -P expect_usage_error.cmake
execute_process(COMMAND ${BIN} --no-such-flag
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 64 OR
   NOT out MATCHES "unknown flag --no-such-flag; .* accepts: --")
    message(FATAL_ERROR "${BIN} --no-such-flag: exit ${rc}, output:\n${out}")
endif()
