# Runs the three `ddlfft analyze-plan` commands of tools/golden/README.md
# and compares each output with its golden file.
#   cmake -DDDLFFT=<ddlfft> -DGOLDEN_DIR=<tools/golden> -DOUT_DIR=<dir>
#         -P check_goldens.cmake
set(cases
    "ct(16,ct(16,16))|analyze_ct16_16_16.txt"
    "ctddlf(16,ct(16,16))|analyze_ctddlf16_16_16.txt"
    "ctddlf(st(1024),st(1024))|analyze_ctddlf_st1024_st1024.txt")
set(failed "")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 tree)
  list(GET parts 1 golden)
  set(out "${OUT_DIR}/${golden}")
  execute_process(COMMAND "${DDLFFT}" analyze-plan --tree "${tree}" --cache 32K:8,512K:1
                  OUTPUT_FILE "${out}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    list(APPEND failed "${tree}: ddlfft exited with ${rc}")
    continue()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN_DIR}/${golden}" "${out}"
                  RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    list(APPEND failed "${tree}: ${out} differs from ${GOLDEN_DIR}/${golden}")
  endif()
endforeach()
if(failed)
  string(REPLACE ";" "\n" failed "${failed}")
  message(FATAL_ERROR "analyze-plan goldens:\n${failed}")
endif()
