# ctest script: `pfstat --strategy` accepts exactly the engine's strategy
# names. A removed name (`tree`) must be a usage error (exit 2) whose usage
# line lists the names that remain, not a silent run under some default.
# Run with:
#   cmake -DPFSTAT=<bin> -P check_pfstat_strategy.cmake
if(NOT DEFINED PFSTAT)
  message(FATAL_ERROR "usage: cmake -DPFSTAT=... -P check_pfstat_strategy.cmake")
endif()

execute_process(COMMAND "${PFSTAT}" --once --strategy tree
                RESULT_VARIABLE result
                OUTPUT_QUIET
                ERROR_VARIABLE usage)
if(NOT result EQUAL 2)
  message(FATAL_ERROR "pfstat --once --strategy tree must exit 2; it exited ${result}")
endif()
if(NOT usage MATCHES "--strategy checked\\|fast\\|indexed]")
  message(FATAL_ERROR "pfstat usage does not list checked|fast|indexed:\n${usage}")
endif()
message(STATUS "pfstat rejects --strategy tree with exit 2")
