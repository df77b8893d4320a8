# Runs TOOL with ARGS (one space-separated string) and passes iff the tool
# refuses up front: it exits with EXPECT_EXIT, prints nothing on stdout and
# names the reason on stderr (matching the regex EXPECT_STDERR).
#
#   cmake -DTOOL=path -DARGS="--flag value" -DEXPECT_EXIT=2 \
#         -DEXPECT_STDERR=regex -P expect_refusal.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "exit '${rc}', expected ${EXPECT_EXIT}; stderr:\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "expected no stdout before the refusal, got:\n${out}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_STDERR}':\n${err}")
endif()
