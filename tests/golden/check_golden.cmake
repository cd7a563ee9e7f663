# Runs one bench or example binary and checks its stdout against a golden
# file. Every bench and example other than the google-benchmark binaries is
# deterministic in virtual time, so any difference is a behaviour change.
#
#   cmake -DBINARY=<exe> -DGOLDEN=<file> [-DARGS=<arg>] -P check_golden.cmake
#
# With -DRECORD=ON the output is written to GOLDEN instead of compared (see
# the record_goldens target in tests/CMakeLists.txt).
cmake_minimum_required(VERSION 3.16)

if(NOT BINARY OR NOT GOLDEN)
  message(FATAL_ERROR "usage: cmake -DBINARY=<exe> -DGOLDEN=<file> "
                      "[-DARGS=<arg>] [-DRECORD=ON] -P check_golden.cmake")
endif()

execute_process(COMMAND "${BINARY}" ${ARGS}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${BINARY} ${ARGS} exited with ${exit_code}")
endif()

if(RECORD)
  file(WRITE "${GOLDEN}" "${actual}")
  message(STATUS "recorded ${GOLDEN}")
  return()
endif()

file(READ "${GOLDEN}" expected)
if(actual STREQUAL expected)
  return()
endif()

# Report the first differing line. The outputs hold ';' and '[', which CMake
# lists treat specially, so walk the strings line by line instead.
set(line_no 1)
while(TRUE)
  string(FIND "${expected}" "\n" expected_end)
  string(FIND "${actual}" "\n" actual_end)
  string(SUBSTRING "${expected}" 0 ${expected_end} expected_line)
  string(SUBSTRING "${actual}" 0 ${actual_end} actual_line)
  if(NOT expected_line STREQUAL actual_line OR
     NOT expected_end EQUAL actual_end OR expected_end EQUAL -1)
    break()
  endif()
  math(EXPR expected_end "${expected_end} + 1")
  math(EXPR actual_end "${actual_end} + 1")
  string(SUBSTRING "${expected}" ${expected_end} -1 expected)
  string(SUBSTRING "${actual}" ${actual_end} -1 actual)
  math(EXPR line_no "${line_no} + 1")
endwhile()
message(FATAL_ERROR
        "${BINARY} ${ARGS}: stdout differs from ${GOLDEN} at line ${line_no}\n"
        "  expected: ${expected_line}\n"
        "  actual:   ${actual_line}\n"
        "Re-record with: cmake --build <build-dir> --target record_goldens")
