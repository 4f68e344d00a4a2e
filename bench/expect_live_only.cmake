# ctest script: `cmake -DBENCH=<bench binary> -P expect_live_only.cmake`.
# Passes when --record, --replay and --resume each exit 2 before any study
# output and name the flag on stderr: the bench's stdout cannot be
# reproduced from a recorded study, so it must refuse the artifact flags
# rather than print something else under them.
set(artifact "${CMAKE_CURRENT_BINARY_DIR}/live_only_never_written.study")
foreach(flags "--record;${artifact}" "--replay;${artifact}"
              "--resume;--record;${artifact}")
  list(GET flags 0 flag)
  execute_process(COMMAND "${BENCH}" ${flags}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${flag}: expected exit 2, got '${rc}'")
  endif()
  if(NOT err MATCHES "${flag} is not supported by this bench")
    message(FATAL_ERROR "${flag}: stderr does not name it: ${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${flag}: the bench printed output: ${out}")
  endif()
  if(EXISTS "${artifact}")
    message(FATAL_ERROR "${flag}: the bench wrote ${artifact}")
  endif()
endforeach()
