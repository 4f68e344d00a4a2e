# ctest script: `cmake -DBENCH=<bench binary> -P expect_unknown_flag.cmake`.
# Passes when an unknown flag exits 2 before any study output and names
# the flag on stderr, and a --benchmark* flag still runs the bench.
execute_process(COMMAND "${BENCH}" --no-such-flag
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--no-such-flag: expected exit 2, got '${rc}'")
endif()
if(NOT err MATCHES "unknown flag: '--no-such-flag'")
  message(FATAL_ERROR "--no-such-flag: stderr does not name it: ${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "--no-such-flag: the bench printed output: ${out}")
endif()

execute_process(COMMAND "${BENCH}" --benchmark_min_time=0.01
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--benchmark_min_time: expected exit 0, got '${rc}'")
endif()
