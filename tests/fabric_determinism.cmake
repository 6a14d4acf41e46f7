# CTest script: a lossy multi-node collective run must be byte-identical
# across --jobs levels and pack engines. The smoke sweep
# of fabric_collectives includes the lossy section (reliable transport
# over the fabric), so one binary covers routing, port contention, fault
# schedules and the full receiver pipelines.
#
# Two comparisons:
#   - --jobs 4 vs the --jobs 1 interpreter reference (parallel sweep
#     points)
#   - --jobs 4 --pack-engine program  vs --jobs 1 --pack-engine program
#     (the compiled flat unpack program, parallelism-independent; it
#     legitimately differs from the interpreter reference in counters,
#     so program mode is compared against its own serial run)
#
# Invoked as:
#   cmake -DFABRIC_BENCH=<path-to-fabric_collectives> -DWORK_DIR=<scratch>
#         -P fabric_determinism.cmake

if(NOT FABRIC_BENCH OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DFABRIC_BENCH=... -DWORK_DIR=... -P fabric_determinism.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")

set(LOSSY --drop-rate 0.05 --dup-rate 0.02 --reorder-rate 0.05
    --fault-seed 31)

function(run_variant dir)
  file(MAKE_DIRECTORY "${WORK_DIR}/${dir}")
  execute_process(
    COMMAND "${FABRIC_BENCH}" --smoke ${LOSSY} ${ARGN} --json report.json
    WORKING_DIRECTORY "${WORK_DIR}/${dir}"
    OUTPUT_FILE stdout.txt
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "fabric_collectives ${dir} failed with ${rc}")
  endif()
endfunction()

function(compare_variant a b what)
  foreach(f stdout.txt report.json)
    execute_process(
      COMMAND "${CMAKE_COMMAND}" -E compare_files
              "${WORK_DIR}/${a}/${f}" "${WORK_DIR}/${b}/${f}"
      RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
      message(FATAL_ERROR
              "${what} diverges in ${f}: "
              "${WORK_DIR}/${a}/${f} vs ${WORK_DIR}/${b}/${f}")
    endif()
  endforeach()
  message(STATUS "fabric determinism: ${what} byte-identical")
endfunction()

run_variant(j1 --jobs 1)
run_variant(j4 --jobs 4)
compare_variant(j1 j4 "--jobs 4 vs --jobs 1")

run_variant(p1 --jobs 1 --pack-engine program)
run_variant(p4 --jobs 4 --pack-engine program)
compare_variant(p1 p4 "program pack engine --jobs 4 vs --jobs 1")
