# CTest script: run_all --smoke output must be byte-identical between
# --jobs 1 and --jobs 4 — stdout and the JSON report. Each run gets its
# own working directory and writes the same relative path, so the paths
# echoed in the output match too.
#
# A second pair repeats the comparison over a lossy wire (nonzero
# --drop-rate plus dup/reorder) for the single-message ablation and the
# open-loop service (reliable puts sharing one sender port): the fault
# schedule is a pure function of (fault seed, msg, packet, attempt), so
# parallelism must not move a single drop.
#
# Invoked as:
#   cmake -DRUN_ALL=<path-to-run_all> -DWORK_DIR=<scratch> -P jobs_determinism.cmake

if(NOT RUN_ALL OR NOT WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DRUN_ALL=... -DWORK_DIR=... -P jobs_determinism.cmake")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/j1" "${WORK_DIR}/j4")

execute_process(
  COMMAND "${RUN_ALL}" --smoke --jobs 1 --json report.json
  WORKING_DIRECTORY "${WORK_DIR}/j1"
  OUTPUT_FILE stdout.txt
  RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 0)
  message(FATAL_ERROR "run_all --jobs 1 failed with ${rc1}")
endif()

execute_process(
  COMMAND "${RUN_ALL}" --smoke --jobs 4 --json report.json
  WORKING_DIRECTORY "${WORK_DIR}/j4"
  OUTPUT_FILE stdout.txt
  RESULT_VARIABLE rc4)
if(NOT rc4 EQUAL 0)
  message(FATAL_ERROR "run_all --jobs 4 failed with ${rc4}")
endif()

foreach(f stdout.txt report.json)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${WORK_DIR}/j1/${f}" "${WORK_DIR}/j4/${f}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR
            "--jobs 4 output diverges from --jobs 1 in ${f}: "
            "${WORK_DIR}/j1/${f} vs ${WORK_DIR}/j4/${f}")
  endif()
endforeach()

message(STATUS "jobs determinism: stdout and JSON byte-identical")

file(MAKE_DIRECTORY "${WORK_DIR}/f1" "${WORK_DIR}/f4")
set(FAULT_FLAGS --only ablation_faults,svc_load --drop-rate 0.05
    --dup-rate 0.02 --reorder-rate 0.05 --fault-seed 31)

execute_process(
  COMMAND "${RUN_ALL}" --smoke --jobs 1 ${FAULT_FLAGS} --json report.json
  WORKING_DIRECTORY "${WORK_DIR}/f1"
  OUTPUT_FILE stdout.txt
  RESULT_VARIABLE rcf1)
if(NOT rcf1 EQUAL 0)
  message(FATAL_ERROR "lossy run_all --jobs 1 failed with ${rcf1}")
endif()

execute_process(
  COMMAND "${RUN_ALL}" --smoke --jobs 4 ${FAULT_FLAGS} --json report.json
  WORKING_DIRECTORY "${WORK_DIR}/f4"
  OUTPUT_FILE stdout.txt
  RESULT_VARIABLE rcf4)
if(NOT rcf4 EQUAL 0)
  message(FATAL_ERROR "lossy run_all --jobs 4 failed with ${rcf4}")
endif()

foreach(f stdout.txt report.json)
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${WORK_DIR}/f1/${f}" "${WORK_DIR}/f4/${f}"
    RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR
            "lossy --jobs 4 output diverges from --jobs 1 in ${f}: "
            "${WORK_DIR}/f1/${f} vs ${WORK_DIR}/f4/${f}")
  endif()
endforeach()

message(STATUS
        "jobs determinism (lossy wire): stdout and JSON byte-identical")
