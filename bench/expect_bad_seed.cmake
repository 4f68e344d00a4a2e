# ctest script: `cmake -DBENCH=<bench binary> -P expect_bad_seed.cmake`.
# Passes when a --seed that is not an unsigned 64-bit decimal exits 2
# before any study output and names the value on stderr, and a valid seed
# (0 and the largest one included) still runs the bench.
foreach(bad abc -1 12x 18446744073709551616)
  execute_process(COMMAND "${BENCH}" --seed "${bad}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--seed '${bad}': expected exit 2, got '${rc}'")
  endif()
  if(NOT err MATCHES "invalid value for --seed: '${bad}'")
    message(FATAL_ERROR "--seed '${bad}': stderr does not name it: ${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "--seed '${bad}': the bench printed output: ${out}")
  endif()
endforeach()

foreach(good 0 18446744073709551615)
  execute_process(COMMAND "${BENCH}" --seed "${good}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--seed ${good}: expected exit 0, got '${rc}'")
  endif()
endforeach()
