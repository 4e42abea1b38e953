# ctest script: `pfbench <id>` must exit 2 exactly for an id no bench
# registers, so a gate whose id is mistyped fails instead of passing. Run with:
#   cmake -DPFBENCH=<bin> -P check_unknown_bench.cmake
if(NOT DEFINED PFBENCH)
  message(FATAL_ERROR "usage: cmake -DPFBENCH=... -P check_unknown_bench.cmake")
endif()

execute_process(COMMAND "${PFBENCH}" no_such_bench
                RESULT_VARIABLE result
                OUTPUT_QUIET ERROR_QUIET)
if(NOT result EQUAL 2)
  message(FATAL_ERROR "pfbench no_such_bench must exit 2; it exited ${result}")
endif()
message(STATUS "pfbench rejects an unknown bench id with exit 2")
