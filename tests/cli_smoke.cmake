# End-to-end smoke test of `ecd_cli run`, registered with ctest in
# tests/CMakeLists.txt. Run by hand with
#   cmake -DECD_CLI=<path to ecd_cli> -DWORK_DIR=<empty dir> -P cli_smoke.cmake
# It checks that:
#   - one run writes a trace, a run report and a profile together, at
#     threads 1 and 4;
#   - the two flight JSONL traces are byte-identical (DESIGN.md §18);
#   - --ring sets the rounds the flight dump keeps;
#   - an unknown family exits non-zero.
cmake_minimum_required(VERSION 3.16)

foreach(var ECD_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "pass -D${var}=...")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs `ecd_cli run <args>` in WORK_DIR and leaves its exit code in `rc`.
macro(ecd_run)
  execute_process(
    COMMAND "${ECD_CLI}" run ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
endmacro()

macro(ecd_run_ok)
  ecd_run(${ARGN})
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ecd_cli run ${ARGN} exited ${rc}\n${out}\n${err}")
  endif()
endmacro()

# Fails unless WORK_DIR/<name> exists and contains `needle`.
function(expect_contains name needle)
  if(NOT EXISTS "${WORK_DIR}/${name}")
    message(FATAL_ERROR "${name} was not written")
  endif()
  file(READ "${WORK_DIR}/${name}" text)
  string(FIND "${text}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "${name} does not contain ${needle}")
  endif()
endfunction()

foreach(t 1 4)
  ecd_run_ok(--family grid --n 256 --threads ${t} --trace trace_t${t}.jsonl
             --report report_t${t}.json --profile profile_t${t}.json)
  expect_contains(trace_t${t}.jsonl "\"type\":\"flight\"")
  expect_contains(report_t${t}.json "\"schema\":\"ecd-run-report-v1\"")
  expect_contains(profile_t${t}.json "\"schema\":\"ecd-profile-v1\"")
endforeach()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files trace_t1.jsonl trace_t4.jsonl
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "JSONL traces differ between threads 1 and 4")
endif()

ecd_run_ok(--family grid --n 256 --threads 4 --ring 16 --trace flight.jsonl)
expect_contains(flight.jsonl "\"type\":\"flight\"")
expect_contains(flight.jsonl "\"keep_rounds\":16")

ecd_run(--family no_such_family --n 256)
if(rc EQUAL 0)
  message(FATAL_ERROR "an unknown family exited 0")
endif()
