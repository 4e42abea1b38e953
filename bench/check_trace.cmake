# Smoke test for `pfbench table_6_08_demux_latency --trace`: runs the bench
# with tracing enabled and verifies the emitted Chrome trace JSON parses and
# contains the expected span names.
#
# Usage: cmake -DPFBENCH=<path-to-pfbench> -DOUT=<trace.json> -P check_trace.cmake

if(NOT PFBENCH OR NOT OUT)
  message(FATAL_ERROR "usage: cmake -DPFBENCH=... -DOUT=... -P check_trace.cmake")
endif()

execute_process(COMMAND "${PFBENCH}" table_6_08_demux_latency "--trace=${OUT}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pfbench table_6_08_demux_latency --trace exited with ${rc}")
endif()

if(NOT EXISTS "${OUT}")
  message(FATAL_ERROR "trace file ${OUT} was not written")
endif()
file(READ "${OUT}" trace)

# Structural JSON parse (string(JSON) needs CMake >= 3.19; the repo's own
# JSON checker in tests/obs_test.cc covers parsing on older hosts).
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  string(JSON n_events ERROR_VARIABLE err LENGTH "${trace}" "traceEvents")
  if(err)
    message(FATAL_ERROR "trace JSON does not parse: ${err}")
  endif()
  if(n_events LESS 5)
    message(FATAL_ERROR "trace contains only ${n_events} events")
  endif()
  message(STATUS "trace parses: ${n_events} events")
endif()

# The traced run injects frames at the receiver's NIC, so the receive-side
# spans (arrival -> interrupt -> demux -> wakeup -> read) and the per-packet
# flow events ("pkt") must all be present.
foreach(span "interrupt" "pf.demux" "pf.read" "pf.wakeup" "pkt")
  string(FIND "${trace}" "\"${span}\"" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "trace is missing expected span name: ${span}")
  endif()
endforeach()
message(STATUS "trace smoke test passed: ${OUT}")
