# The whole-tree code epoch (src/code_epoch.cmake) must move when one
# byte of sim/rng.hh flips and when an empty header is added, and
# come back when the byte is restored. Works on a copy of the tree:
#   cmake -DSRC_DIR=<src> -DWORK_DIR=<scratch> -P code_epoch_test.cmake
set(copy "${WORK_DIR}/src")
file(REMOVE_RECURSE "${WORK_DIR}")
file(COPY "${SRC_DIR}/" DESTINATION "${copy}")

function(epoch out)
    execute_process(COMMAND "${CMAKE_COMMAND}" "-DSRC_DIR=${copy}"
                            "-DOUT=${WORK_DIR}/epoch.cc"
                            -P "${SRC_DIR}/code_epoch.cmake")
    file(READ "${WORK_DIR}/epoch.cc" text)
    if(NOT text MATCHES "return \"([0-9a-f]+)\";")
        message(FATAL_ERROR "no epoch in the generated source")
    endif()
    set(${out} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

epoch(base)
string(LENGTH "${base}" digits)
set(rng "${copy}/sim/rng.hh")
file(READ "${rng}" original)
string(SUBSTRING "${original}" 1 -1 rest)
file(WRITE "${rng}" "#${rest}")
epoch(flipped)
file(WRITE "${rng}" "${original}")
epoch(restored)
file(WRITE "${copy}/sim/empty_new.hh" "")
epoch(added)
file(REMOVE_RECURSE "${WORK_DIR}")

if(NOT digits EQUAL 32 OR base STREQUAL flipped OR
   NOT base STREQUAL restored OR base STREQUAL added)
    message(FATAL_ERROR "epochs: base ${base}, rng.hh flipped "
            "${flipped}, restored ${restored}, header added ${added}")
endif()
