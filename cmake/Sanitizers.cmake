# Sanitizer build modes (MSV_SANITIZE).
#
# MSV_SANITIZE is a semicolon-separated list of sanitizers to instrument
# the whole build with:
#
#   cmake -B build -DMSV_SANITIZE=address;undefined   # memory errors + UB
#   cmake -B build -DMSV_SANITIZE=thread              # data races
#
# (or use the asan-ubsan / tsan presets in CMakePresets.json, which also
# set the suppression-file environment for ctest.)
#
# The flags live on an INTERFACE target, msv_sanitizer_flags, which every
# library and executable links via msv_instrument(). Propagating per
# target — rather than mutating CMAKE_CXX_FLAGS globally — keeps the
# instrumentation composable: a future split of the build into
# sanitized/unsanitized halves (e.g. an uninstrumented codegen helper)
# only has to stop calling msv_instrument on the exempt target.

set(MSV_SANITIZE "" CACHE STRING
    "Semicolon-separated sanitizers to build with: any of address, \
undefined, leak, thread (thread excludes address/leak)")

add_library(msv_sanitizer_flags INTERFACE)

if(MSV_SANITIZE)
  set(_msv_san_allowed address undefined leak thread)
  foreach(_san IN LISTS MSV_SANITIZE)
    if(NOT _san IN_LIST _msv_san_allowed)
      message(FATAL_ERROR
        "MSV_SANITIZE: unknown sanitizer '${_san}' "
        "(allowed: ${_msv_san_allowed})")
    endif()
  endforeach()
  if("thread" IN_LIST MSV_SANITIZE AND
     ("address" IN_LIST MSV_SANITIZE OR "leak" IN_LIST MSV_SANITIZE))
    message(FATAL_ERROR
      "MSV_SANITIZE: thread cannot be combined with address/leak")
  endif()

  set(_msv_san_list ${MSV_SANITIZE})
  if("undefined" IN_LIST MSV_SANITIZE)
    # GCC's -fsanitize=undefined leaves out float-cast-overflow, so a
    # double -> integer cast of an out-of-range value would pass silently.
    list(APPEND _msv_san_list float-cast-overflow)
  endif()
  string(REPLACE ";" "," _msv_san_csv "${_msv_san_list}")
  target_compile_options(msv_sanitizer_flags INTERFACE
    -fsanitize=${_msv_san_csv}
    -fno-omit-frame-pointer
    -fno-sanitize-recover=all
    -g)
  target_link_options(msv_sanitizer_flags INTERFACE
    -fsanitize=${_msv_san_csv})
  message(STATUS "MSV: building with sanitizers: ${MSV_SANITIZE}")
endif()

# Attaches the repo-wide sanitizer flags to `target`. Called by every
# add_library/add_executable site; a no-op when MSV_SANITIZE is empty.
function(msv_instrument target)
  target_link_libraries(${target} PRIVATE msv_sanitizer_flags)
endfunction()
