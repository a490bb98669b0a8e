# CTest script: run uniclean_cli end-to-end on a tiny generated HOSP sample.
#
# Inputs (passed with -D):
#   CLI      — path to the uniclean_cli executable
#   SAMPLER  — path to the make_hosp_sample executable
#   WORK_DIR — scratch directory for the sample and outputs

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${SAMPLER}" --out-dir "${WORK_DIR}" --tuples 60 --master 30
  RESULT_VARIABLE sampler_rc
  OUTPUT_VARIABLE sampler_out
  ERROR_VARIABLE sampler_err
)
if(NOT sampler_rc EQUAL 0)
  message(FATAL_ERROR "make_hosp_sample failed (rc=${sampler_rc}):\n${sampler_out}\n${sampler_err}")
endif()

execute_process(
  COMMAND "${CLI}"
    --data "${WORK_DIR}/dirty.csv"
    --master "${WORK_DIR}/master.csv"
    --rules "${WORK_DIR}/rules.txt"
    --confidence "${WORK_DIR}/confidence.csv"
    --out "${WORK_DIR}/repaired.csv"
    --report "${WORK_DIR}/fixes.txt"
    --check-consistency
  RESULT_VARIABLE cli_rc
  OUTPUT_VARIABLE cli_out
  ERROR_VARIABLE cli_err
)
if(NOT cli_rc EQUAL 0)
  message(FATAL_ERROR "uniclean_cli failed (rc=${cli_rc}):\n${cli_out}\n${cli_err}")
endif()

foreach(artifact repaired.csv fixes.txt)
  if(NOT EXISTS "${WORK_DIR}/${artifact}")
    message(FATAL_ERROR "uniclean_cli did not write ${artifact}:\n${cli_out}")
  endif()
endforeach()

file(SIZE "${WORK_DIR}/fixes.txt" report_size)
if(report_size EQUAL 0)
  message(FATAL_ERROR "repair report fixes.txt is empty — the cleaner fixed nothing:\n${cli_out}")
endif()

# Incremental path: replay a few dirty rows as a post-batch insert stream.
file(STRINGS "${WORK_DIR}/dirty.csv" dirty_lines)
list(GET dirty_lines 0 header)
list(GET dirty_lines 1 row1)
list(GET dirty_lines 2 row2)
file(WRITE "${WORK_DIR}/edits.csv" "${header}\n${row1}\n${row2}\n")

execute_process(
  COMMAND "${CLI}"
    --data "${WORK_DIR}/dirty.csv"
    --master "${WORK_DIR}/master.csv"
    --rules "${WORK_DIR}/rules.txt"
    --confidence "${WORK_DIR}/confidence.csv"
    --out "${WORK_DIR}/repaired_delta.csv"
    --delta "${WORK_DIR}/edits.csv"
  RESULT_VARIABLE delta_rc
  OUTPUT_VARIABLE delta_out
  ERROR_VARIABLE delta_err
)
if(NOT delta_rc EQUAL 0)
  message(FATAL_ERROR "uniclean_cli --delta failed (rc=${delta_rc}):\n${delta_out}\n${delta_err}")
endif()
if(NOT delta_out MATCHES "delta: 2 inserts")
  message(FATAL_ERROR "uniclean_cli --delta did not report the insert stream:\n${delta_out}")
endif()
if(NOT EXISTS "${WORK_DIR}/repaired_delta.csv")
  message(FATAL_ERROR "uniclean_cli --delta did not write repaired_delta.csv:\n${delta_out}")
endif()

# Phase selection: the CLI prints the engine's own phase list and runs
# exactly those phases, in paper order.
execute_process(
  COMMAND "${CLI}"
    --data "${WORK_DIR}/dirty.csv"
    --master "${WORK_DIR}/master.csv"
    --rules "${WORK_DIR}/rules.txt"
    --out "${WORK_DIR}/repaired_ce.csv"
    --phases ce
  RESULT_VARIABLE phases_rc
  OUTPUT_VARIABLE phases_out
  ERROR_VARIABLE phases_err
)
if(NOT phases_rc EQUAL 0)
  message(FATAL_ERROR "uniclean_cli --phases ce failed (rc=${phases_rc}):\n${phases_out}\n${phases_err}")
endif()
if(NOT phases_out MATCHES "phases: cRepair, eRepair\n")
  message(FATAL_ERROR "uniclean_cli --phases ce did not list cRepair, eRepair:\n${phases_out}")
endif()
if(NOT phases_out MATCHES "\\[2/2\\] eRepair:")
  message(FATAL_ERROR "uniclean_cli --phases ce did not run eRepair as phase 2 of 2:\n${phases_out}")
endif()

# An unknown phase letter is a usage error, not a silent empty pipeline.
execute_process(
  COMMAND "${CLI}"
    --data "${WORK_DIR}/dirty.csv"
    --master "${WORK_DIR}/master.csv"
    --rules "${WORK_DIR}/rules.txt"
    --out "${WORK_DIR}/repaired_x.csv"
    --phases x
  RESULT_VARIABLE bad_phases_rc
  OUTPUT_VARIABLE bad_phases_out
  ERROR_VARIABLE bad_phases_err
)
if(bad_phases_rc EQUAL 0)
  message(FATAL_ERROR "uniclean_cli --phases x exited 0:\n${bad_phases_out}\n${bad_phases_err}")
endif()

message(STATUS "cli_smoke_test OK: report has ${report_size} bytes")
