#include "support/StringUtils.h"

#include <cstdio>

using namespace jvolve;

std::vector<std::string> jvolve::splitString(const std::string &Text, char Sep,
                                             size_t Limit) {
  std::vector<std::string> Parts;
  size_t Pos = 0;
  while (true) {
    if (Limit != 0 && Parts.size() + 1 == Limit) {
      Parts.push_back(Text.substr(Pos));
      return Parts;
    }
    size_t Next = Text.find(Sep, Pos);
    if (Next == std::string::npos) {
      Parts.push_back(Text.substr(Pos));
      return Parts;
    }
    Parts.push_back(Text.substr(Pos, Next - Pos));
    Pos = Next + 1;
  }
}

std::vector<std::string> jvolve::splitCommaList(const std::string &Text) {
  std::vector<std::string> Entries;
  for (const std::string &Piece : splitString(Text, ',')) {
    size_t First = Piece.find_first_not_of(' ');
    if (First != std::string::npos)
      Entries.push_back(
          Piece.substr(First, Piece.find_last_not_of(' ') - First + 1));
  }
  return Entries;
}

bool jvolve::startsWith(const std::string &Text, const std::string &Prefix) {
  return Text.compare(0, Prefix.size(), Prefix) == 0;
}

std::string jvolve::joinStrings(const std::vector<std::string> &Parts,
                                const std::string &Sep) {
  std::string Out;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I != 0)
      Out += Sep;
    Out += Parts[I];
  }
  return Out;
}

void jvolve::appendJsonString(std::string &Out, const std::string &Text) {
  Out += '"';
  for (char C : Text) {
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\r': Out += "\\r"; break;
    case '\t': Out += "\\t"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", static_cast<unsigned>(C));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

std::string jvolve::jsonString(const std::string &Text) {
  std::string Out;
  appendJsonString(Out, Text);
  return Out;
}
