# Fails unless two camo-bench/v1 artifacts of the same bench differ in at
# least one simulated series (unit "cycles" or "insns"): a flag that should
# change the simulated machine must not be ignored.
#
#   cmake -DA=<first.json> -DB=<second.json> -P series_differ.cmake
file(READ "${A}" a)
file(READ "${B}" b)
string(JSON n LENGTH "${a}" series)
string(JSON nb LENGTH "${b}" series)
if(NOT n EQUAL nb)
  message(FATAL_ERROR "${A} has ${n} series, ${B} has ${nb}")
endif()
math(EXPR last "${n} - 1")
set(simulated 0)
set(differ 0)
foreach(i RANGE ${last})
  string(JSON unit GET "${a}" series ${i} unit)
  if(NOT unit STREQUAL "cycles" AND NOT unit STREQUAL "insns")
    continue()
  endif()
  foreach(side a b)
    string(JSON ${side}_name GET "${${side}}" series ${i} benchmark)
    string(JSON ${side}_config GET "${${side}}" series ${i} config)
    string(JSON ${side}_value GET "${${side}}" series ${i} value)
  endforeach()
  if(NOT "${a_config}/${a_name}" STREQUAL "${b_config}/${b_name}")
    message(FATAL_ERROR "series ${i}: ${a_config}/${a_name} against "
                        "${b_config}/${b_name}")
  endif()
  math(EXPR simulated "${simulated} + 1")
  if(NOT a_value STREQUAL b_value)
    math(EXPR differ "${differ} + 1")
  endif()
endforeach()
if(simulated EQUAL 0 OR differ EQUAL 0)
  message(FATAL_ERROR
          "all ${simulated} simulated series of ${A} and ${B} are identical")
endif()
message(STATUS "${differ} of ${simulated} simulated series differ")
