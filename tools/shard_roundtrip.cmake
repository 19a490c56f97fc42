# The cross-process pipeline through the real binaries:
# scorpio_shardd records every registry kernel to one .stap shard each
# and writes the in-process merged report; scorpio_merge merges the
# shard directory.  The two reports must be byte-identical.
#
#   cmake -DSHARDD=<scorpio_shardd> -DMERGE=<scorpio_merge>
#         -DWORK_DIR=<scratch dir> [-DSHARDD_ARGS=<arg;...>]
#         -P shard_roundtrip.cmake
#
# SHARDD_ARGS, a CMake list, is passed to scorpio_shardd after its
# output options (e.g. --no-compress, to write every section raw).
foreach(Var SHARDD MERGE WORK_DIR)
  if(NOT DEFINED ${Var})
    message(FATAL_ERROR "shard_roundtrip: -D${Var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/shards")

execute_process(
  COMMAND "${SHARDD}" --out "${WORK_DIR}/shards"
          --inprocess "${WORK_DIR}/inproc.json" ${SHARDD_ARGS}
  RESULT_VARIABLE Rc OUTPUT_QUIET)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "scorpio_shardd exited with ${Rc}")
endif()

execute_process(
  COMMAND "${MERGE}" "${WORK_DIR}/shards" --json "${WORK_DIR}/merged.json"
  RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "scorpio_merge exited with ${Rc}")
endif()

execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
          "${WORK_DIR}/inproc.json" "${WORK_DIR}/merged.json"
  RESULT_VARIABLE Rc)
if(NOT Rc EQUAL 0)
  message(FATAL_ERROR "merged report differs from the in-process report: "
                      "${WORK_DIR}/inproc.json vs ${WORK_DIR}/merged.json")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
