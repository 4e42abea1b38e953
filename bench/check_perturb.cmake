# ctest script for the observatory gate's self-test: a +20% perturbation of
# the fresh run must make `pfbench --compare --fresh` report a regression,
# which is exit code 1 exactly. Exit 2 means an input could not be read, so
# the inputs are asserted to exist first and no other non-zero exit counts:
# the self-test can never pass vacuously. Run with:
#   cmake -DPFBENCH=<bin> -DBASELINE=<json> -DFRESH=<json> -P check_perturb.cmake
if(NOT DEFINED PFBENCH OR NOT DEFINED BASELINE OR NOT DEFINED FRESH)
  message(FATAL_ERROR "usage: cmake -DPFBENCH=... -DBASELINE=... -DFRESH=... -P check_perturb.cmake")
endif()
foreach(input IN ITEMS "${BASELINE}" "${FRESH}")
  if(NOT EXISTS "${input}")
    message(FATAL_ERROR "gate self-test input missing: ${input}")
  endif()
endforeach()

execute_process(COMMAND "${PFBENCH}" --compare "${BASELINE}" --fresh "${FRESH}"
                        --perturb 20 --gate-host off
                RESULT_VARIABLE compare_result
                OUTPUT_QUIET)
if(NOT compare_result EQUAL 1)
  message(FATAL_ERROR "a +20% perturbation must regress (exit 1); "
                      "pfbench exited ${compare_result}")
endif()
message(STATUS "gate self-test: the +20% perturbation regressed, as it must")
