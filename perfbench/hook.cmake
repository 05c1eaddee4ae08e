# The benchmark's build file. Injected into the repository's own
# configure with
#   -DCMAKE_PROJECT_INCLUDE=<this file>
# so perfbench_bin is compiled with exactly the flags, options and library
# targets the repository build defines. The first inclusion (at the root
# project() call) defers a second one to the end of the root
# CMakeLists.txt, when those targets exist.
if(NOT CMAKE_CURRENT_SOURCE_DIR STREQUAL CMAKE_SOURCE_DIR)
  return()  # A project() call below the root.
endif()
if(NOT PERFBENCH_DEFERRED)
  set(PERFBENCH_DEFERRED ON)
  cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
    CALL include "${CMAKE_PROJECT_INCLUDE}")
  return()
endif()

add_executable(perfbench_bin
  ${CMAKE_SOURCE_DIR}/perfbench/workloads.cc
  ${CMAKE_SOURCE_DIR}/perfbench/loadgen.cc)
target_include_directories(perfbench_bin PRIVATE
  ${CMAKE_SOURCE_DIR}/perfbench ${CMAKE_SOURCE_DIR}/src)
target_link_libraries(perfbench_bin PRIVATE
  tpiin_serve tpiin_io tpiin_shard tpiin_core tpiin_snapshot
  tpiin_fusion tpiin_datagen tpiin_model tpiin_graph tpiin_obs
  tpiin_common Threads::Threads)
