# Runs one evaluation binary and checks it, or checks the goldens against the
# benchmark reference; the ctest labels golden and flags call it in one of
# five modes:
#   cmake -DBIN=<binary> -DGOLDEN=<file> -DACTUAL=<file> [-DCSV=ON] [-DUPDATE=ON]
#         -P bench_check.cmake
#     runs BIN --jobs 4, writes its stdout to ACTUAL and requires it to equal
#     GOLDEN byte for byte (UPDATE=ON copies ACTUAL over GOLDEN instead); with
#     CSV=ON the binary writes ACTUAL itself through --csv ACTUAL and its
#     stdout is dropped;
#   cmake -DBIN=<binary> -DGOLDEN=<file> -DACTUAL=<file> -DTRACE=<file>
#         -DTRACE_SHA256=<file> [-DARGS=<arg;arg>] [-DUPDATE=ON] -P bench_check.cmake
#     runs BIN --metrics ACTUAL --trace TRACE (with ARGS: BIN ARGS
#     --trace=TRACE, its stdout written to ACTUAL) and requires ACTUAL to
#     equal GOLDEN byte for byte and TRACE's sha256 to equal the hash
#     recorded in TRACE_SHA256 (UPDATE=ON rewrites GOLDEN and TRACE_SHA256
#     instead);
#   cmake -DBIN=<binary> -DARGS=<arg;arg> -DEXPECT_EXIT=<n> -P bench_check.cmake
#     runs BIN ARGS and requires exit status n.
#   cmake -DBIN=<binary> -DARGS=<arg;arg> -DARGS_B=<arg;arg> -DSAME_LINES=<re;re>
#         -P bench_check.cmake
#     runs BIN ARGS and BIN ARGS_B; each SAME_LINES regex must match both
#     stdouts, and the two must agree from the match to the end of its line.
#   cmake -DGOLDENS=<dir> -DBINARIES=<bin;bin> -DREFERENCE=<file> -P bench_check.cmake
#     requires each GOLDENS/<bin>.txt to hash to the sha256 that REFERENCE
#     (perfbench/reference/eval.txt: "<bin> <sha256> <events>" lines) records
#     for bin; runs nothing.
if(DEFINED EXPECT_EXIT)
  execute_process(COMMAND ${BIN} ${ARGS} RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc STREQUAL EXPECT_EXIT)
    list(JOIN ARGS " " args_text)
    message(FATAL_ERROR "${BIN} ${args_text}: exit status ${rc}, want ${EXPECT_EXIT}")
  endif()
  return()
endif()

if(DEFINED SAME_LINES)
  foreach(run ARGS ARGS_B)
    execute_process(COMMAND ${BIN} ${${run}} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
    list(JOIN ${run} " " args_text)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${BIN} ${args_text}: exit status ${rc}")
    endif()
    set(lines_${run} "")
    foreach(re ${SAME_LINES})
      string(REGEX MATCH "${re}[^\n]*" line "${out}")
      if(line STREQUAL "")
        message(FATAL_ERROR "${BIN} ${args_text}: no line matches '${re}'")
      endif()
      string(APPEND lines_${run} "${line}\n")
    endforeach()
  endforeach()
  if(NOT lines_ARGS STREQUAL lines_ARGS_B)
    message(FATAL_ERROR "lines differ:\n${lines_ARGS}vs\n${lines_ARGS_B}")
  endif()
  return()
endif()

if(DEFINED REFERENCE)
  file(STRINGS ${REFERENCE} reference_lines REGEX "^[a-z0-9_]+ [0-9a-f]+ ")
  foreach(bin ${BINARIES})
    file(SHA256 ${GOLDENS}/${bin}.txt golden_hash)
    set(want_hash "")
    foreach(line ${reference_lines})
      if(line MATCHES "^${bin} ([0-9a-f]+) ")
        set(want_hash ${CMAKE_MATCH_1})
      endif()
    endforeach()
    if(NOT golden_hash STREQUAL want_hash)
      message(FATAL_ERROR "${GOLDENS}/${bin}.txt hashes to ${golden_hash}, "
                          "${REFERENCE} records '${want_hash}'")
    endif()
  endforeach()
  return()
endif()

if(DEFINED TRACE)
  file(REMOVE ${ACTUAL} ${TRACE})
  if(DEFINED ARGS)
    set(cmd ${BIN} ${ARGS} --trace=${TRACE})
    execute_process(COMMAND ${cmd} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE rc)
  else()
    set(cmd ${BIN} --metrics ${ACTUAL} --trace ${TRACE})
    execute_process(COMMAND ${cmd} OUTPUT_QUIET RESULT_VARIABLE rc)
  endif()
elseif(CSV)
  file(REMOVE ${ACTUAL})
  set(cmd ${BIN} --jobs 4 --csv ${ACTUAL})
  execute_process(COMMAND ${cmd} OUTPUT_QUIET RESULT_VARIABLE rc)
else()
  set(cmd ${BIN} --jobs 4)
  execute_process(COMMAND ${cmd} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE rc)
endif()
list(JOIN cmd " " cmd_text)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${cmd_text}: exit status ${rc}")
endif()
if(DEFINED TRACE)
  file(SHA256 ${TRACE} trace_hash)
endif()
if(UPDATE)
  configure_file(${ACTUAL} ${GOLDEN} COPYONLY)
  if(DEFINED TRACE)
    file(WRITE ${TRACE_SHA256} "${trace_hash}\n")
  endif()
  return()
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${GOLDEN}
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "output of ${cmd_text} (${ACTUAL}) differs from ${GOLDEN}")
endif()
if(DEFINED TRACE)
  file(STRINGS ${TRACE_SHA256} want_hash LIMIT_COUNT 1)
  if(NOT trace_hash STREQUAL want_hash)
    message(FATAL_ERROR
            "${cmd_text}: ${TRACE} hashes to ${trace_hash}, ${TRACE_SHA256} records ${want_hash}")
  endif()
endif()
