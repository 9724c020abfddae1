#pragma once
/// \file asan.h
/// AddressSanitizer detection, shared by the code that poisons memory and
/// the tests that check the poisoning. Defines MPIPE_HAS_ASAN when the
/// translation unit is built with ASan (GCC: __SANITIZE_ADDRESS__, Clang:
/// __has_feature(address_sanitizer)), and ASAN_(UN)POISON_MEMORY_REGION,
/// which are no-ops without it.

#if defined(__SANITIZE_ADDRESS__)
#define MPIPE_HAS_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MPIPE_HAS_ASAN 1
#endif
#endif

#ifdef MPIPE_HAS_ASAN
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif
