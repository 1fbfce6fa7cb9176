# Runs TOOL with ARGS (one shell-style string), checks the exit code against
# EXPECT_EXIT, requires EXPECT_MATCH (a regex) to appear in the combined
# stdout+stderr and, when EXPECT_NO_MATCH (a regex) is set, requires that no
# line of it matches (so ^ anchors at a line start).  Used for cascsim CLI
# contract tests (bad-input Diagnostics with nonzero exits, and the
# rt-backend cross-validation smoke).  Invoked by ctest via
#   cmake -DTOOL=... -DARGS="--x --y" -DEXPECT_EXIT=N -DEXPECT_MATCH=regex \
#         [-DEXPECT_NO_MATCH=regex] -DWORKDIR=... -P run_cli_expect.cmake
foreach(var TOOL ARGS EXPECT_EXIT WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_cli_expect.cmake: ${var} not set")
  endif()
endforeach()

separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND ${TOOL} ${arg_list}
  WORKING_DIRECTORY ${WORKDIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)

if(NOT rc EQUAL ${EXPECT_EXIT})
  message(FATAL_ERROR
          "${TOOL} ${ARGS} exited '${rc}', expected ${EXPECT_EXIT}\n"
          "stdout:\n${out}\nstderr:\n${err}")
endif()

if(DEFINED EXPECT_MATCH AND NOT "${out}${err}" MATCHES "${EXPECT_MATCH}")
  message(FATAL_ERROR
          "${TOOL} ${ARGS}: output does not match '${EXPECT_MATCH}'\n"
          "stdout:\n${out}\nstderr:\n${err}")
endif()

if(DEFINED EXPECT_NO_MATCH)
  string(REGEX MATCHALL "[^\n]+" lines "${out}\n${err}")
  foreach(line IN LISTS lines)
    if(line MATCHES "${EXPECT_NO_MATCH}")
      message(FATAL_ERROR
              "${TOOL} ${ARGS}: output line '${line}' matches "
              "'${EXPECT_NO_MATCH}'\n"
              "stdout:\n${out}\nstderr:\n${err}")
    endif()
  endforeach()
endif()
